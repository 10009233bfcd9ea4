(* The deterministic fault-injection engine.

   One engine is armed per machine (fleet/domain-safe: every hook lives in
   per-machine mutable fields, never in globals). Faults fire from the
   kernel's scheduler-boundary inject hook — the quiescent points where the
   machine is resumable — and every random choice (class, target, bit)
   comes from the plan-seeded private PRNG, so a (plan, scenario) pair
   reproduces the same faulty machine bit-for-bit.

   The same engine also wires up the graceful-degradation detectors:

   - the MMU TLB guard, auditing every TLB hit against the live pagetable
     through {!Split_memory.entry_consistent} and resyncing (drop + refill)
     on mismatch — this catches a corrupted or phantom entry at translation
     time, before the stale access retires;
   - the physical-memory ECC shadow, correcting injected frame flips on
     first read;
   - allocator-exhaustion containment (the kernel's oom_kill path) and
     transient-syscall restart (ERESTART), which the kernel performs itself
     once the fault is injected.

   Every detection lands in the event log as [Fault_detected] and in the
   inject.* metrics when the machine is observed. *)

module K = Kernel

type injected = {
  i_class : Plan.fault_class;
  i_cycle : int;
  i_pid : int;
  i_detail : string;
}

type t = {
  plan : Plan.t;
  m : K.Machine.t;
  prng : Prng.t;
  mutable count : int;
  mutable injected_rev : injected list;
  mutable next_fire : int;
  mutable squeeze_left : int;
  mutable suppress_invlpg : int;
  mutable suppressed : int;
  mutable pending_ecc : (int * int) list;  (* packed paddr, good byte *)
  mutable detections : int;
}

let plan e = e.plan
let injected_count e = e.count
let injected e = List.rev e.injected_rev
let detections e = e.detections
let pending_flips e = List.length e.pending_ecc

let cycles e = (e.m.K.Machine.cost).Hw.Cost.cycles

let current_proc e =
  match K.Machine.proc e.m e.m.K.Machine.last_running with
  | Some p when not (K.Proc.is_zombie p) -> Some p
  | _ -> None

let record_detection e ~pid ~kind ~action ~metric =
  e.detections <- e.detections + 1;
  if Obs.enabled e.m.obs then Obs.count e.m.obs metric;
  K.Event_log.add e.m.log (K.Event_log.Fault_detected { pid; kind; action })

(* The TLB guard (hardened-kernel desync audit). Consistent entries cost a
   predicate call and nothing else, so an armed engine that never injects
   leaves the run bit-identical. A rejected entry is dropped by the MMU and
   refilled from the live pagetable; if the fault un-restricted a split PTE
   (re-merging the views) we also repair the supervisor bit — except inside
   Algorithm 1's own single-step window, where the PTE is deliberately
   unrestricted for the faulting vpn. *)
let guard e access (entry : Hw.Tlb.entry) =
  match current_proc e with
  | None -> true
  | Some p ->
    let pte = K.Aspace.pte p.aspace entry.vpn in
    Split_memory.entry_consistent ~access pte entry
    || begin
         (match pte with
         | Some pte
           when Split_memory.Splitter.is_active_split pte && pte.user
                && (match p.pending_fault_addr with
                   | Some a -> a / e.m.page_size <> entry.vpn
                   | None -> true) ->
           K.Pte.restrict pte
         | _ -> ());
         record_detection e ~pid:p.pid ~kind:"tlb-desync" ~action:"resync"
           ~metric:"inject.desyncs_detected";
         false
       end

let on_ecc e paddr =
  e.pending_ecc <- List.filter (fun (pa, _) -> pa <> paddr) e.pending_ecc;
  let pid = match current_proc e with Some p -> p.K.Proc.pid | None -> 0 in
  record_detection e ~pid ~kind:"ecc" ~action:"corrected" ~metric:"inject.ecc_corrected"

let on_invlpg e _vpn =
  e.suppress_invlpg > 0
  && begin
       e.suppress_invlpg <- e.suppress_invlpg - 1;
       e.suppressed <- e.suppressed + 1;
       if Obs.enabled e.m.obs then Obs.count e.m.obs "inject.invlpg_suppressed";
       true
     end

let on_syscall e (p : K.Proc.t) _n =
  e.squeeze_left > 0
  && (match e.plan.trigger.pid with None -> true | Some pid -> pid = p.pid)
  && begin
       e.squeeze_left <- e.squeeze_left - 1;
       if Obs.enabled e.m.obs then Obs.count e.m.obs "inject.syscalls_squeezed";
       true
     end

(* ------------------------------------------------------------------ *)
(* Target selection                                                    *)
(* ------------------------------------------------------------------ *)

let pick e = function
  | [] -> None
  | l -> Some (List.nth l (Prng.int e.prng (List.length l)))

let vpn_ok e vpn = match e.plan.trigger.vpn with None -> true | Some v -> v = vpn

let pick_entry e tlb =
  pick e (List.filter (fun (en : Hw.Tlb.entry) -> vpn_ok e en.vpn) (Hw.Tlb.entries tlb))

(* [iter_ptes] is hashtable-ordered; sort by vpn so target choice depends
   only on the logical pagetable, not on hashing history. *)
let ptes e (p : K.Proc.t) pred =
  let acc = ref [] in
  K.Aspace.iter_ptes p.aspace (fun pte ->
      if pte.K.Pte.present && vpn_ok e pte.vpn && pred pte then acc := pte :: !acc);
  List.sort (fun (a : K.Pte.t) b -> compare a.vpn b.vpn) !acc

let pick_pte e p pred = pick e (ptes e p pred)

let pick_tlb e =
  if Prng.int e.prng 2 = 0 then Hw.Mmu.itlb e.m.mmu else Hw.Mmu.dtlb e.m.mmu

(* ------------------------------------------------------------------ *)
(* Injectors — each returns a detail string, or None when no target
   exists right now (the budget is not consumed; the engine retries at
   the next boundary). Details must not contain ';' '@' or newlines
   (they ride in the serialized state). *)
(* ------------------------------------------------------------------ *)

let inject_tlb_wrong_pfn e =
  let tlb = pick_tlb e in
  match pick_entry e tlb with
  | None -> None
  | Some en ->
    let frames = Hw.Phys.frame_count e.m.phys in
    let f = en.frame lxor (1 lsl Prng.int e.prng 4) in
    let f = if f >= frames then (en.frame + 1) mod frames else f in
    ignore (Hw.Tlb.tamper tlb en.vpn (fun x -> { x with frame = f }) : bool);
    Some (Fmt.str "%s vpn=0x%x frame %d->%d" (Hw.Tlb.name tlb) en.vpn en.frame f)

let inject_tlb_wrong_perms e =
  let tlb = pick_tlb e in
  match pick_entry e tlb with
  | None -> None
  | Some en ->
    let bit = Prng.int e.prng 3 in
    let name, f =
      match bit with
      | 0 -> ("user", fun (x : Hw.Tlb.entry) -> { x with user = not x.user })
      | 1 -> ("writable", fun x -> { x with writable = not x.writable })
      | _ -> ("nx", fun x -> { x with nx = not x.nx })
    in
    ignore (Hw.Tlb.tamper tlb en.vpn f : bool);
    Some (Fmt.str "%s vpn=0x%x %s flipped" (Hw.Tlb.name tlb) en.vpn name)

(* A stale entry that a missed invlpg would have left behind: for a split
   page, an ITLB entry routing fetches at the *data* copy (the exact
   desync the paper's defense must never let stand); otherwise a mapped
   page's pre-remap entry with a wrong frame. Either way the next fetch
   or access through it must be caught by the guard before the stale
   translation retires. The next real invlpg is also swallowed. *)
let inject_tlb_phantom e p =
  let target =
    match pick_pte e p (fun pte -> Split_memory.Splitter.is_active_split pte) with
    | Some pte ->
      let s = Option.get pte.K.Pte.split in
      Hw.Tlb.insert (Hw.Mmu.itlb e.m.mmu)
        {
          vpn = pte.vpn;
          frame = s.data_frame;
          user = true;
          writable = pte.writable;
          nx = false;
        };
      Some (Fmt.str "itlb phantom vpn=0x%x -> data frame %d" pte.vpn s.data_frame)
    | None -> (
      match pick_pte e p (fun _ -> true) with
      | None -> None
      | Some pte ->
        let frames = Hw.Phys.frame_count e.m.phys in
        let f = (pte.K.Pte.frame + 1) mod frames in
        let tlb = pick_tlb e in
        Hw.Tlb.insert tlb
          {
            vpn = pte.vpn;
            frame = f;
            user = pte.user;
            writable = pte.writable;
            nx = pte.nx;
          };
        Some (Fmt.str "%s phantom vpn=0x%x -> frame %d" (Hw.Tlb.name tlb) pte.vpn f))
  in
  (match target with Some _ -> e.suppress_invlpg <- e.suppress_invlpg + 1 | None -> ());
  target

(* PTE flips restrict themselves to permission/present bits: a flipped
   frame number is indistinguishable from a legitimate remap to any
   consistency audit (the corrupted PTE is self-consistent), so frame
   corruption is modelled at the TLB level instead. *)
let inject_pte_flip e p =
  match pick_pte e p (fun _ -> true) with
  | None -> None
  | Some pte ->
    let bit = Prng.int e.prng 4 in
    let name =
      match bit with
      | 0 -> (pte.K.Pte.user <- not pte.user; "user")
      | 1 -> (pte.writable <- not pte.writable; "writable")
      | 2 -> (pte.nx <- not pte.nx; "nx")
      | _ -> (pte.present <- not pte.present; "present")
    in
    Some (Fmt.str "pte vpn=0x%x %s flipped" pte.vpn name)

let flip_frame e ~frame ~what ~vpn =
  let off = Prng.int e.prng (Hw.Phys.page_size e.m.phys) in
  let bit = Prng.int e.prng 8 in
  let good = Hw.Phys.read8 e.m.phys ~frame ~off in
  Hw.Phys.flip_bit e.m.phys ~frame ~off ~bit;
  e.pending_ecc <-
    (Hw.Phys.addr e.m.phys ~frame ~off, good) :: e.pending_ecc;
  Some (Fmt.str "%s frame %d vpn=0x%x off=0x%x bit=%d" what frame vpn off bit)

let inject_frame_flip_code e p =
  match pick_pte e p (fun pte -> K.Pte.is_split pte) with
  | Some pte ->
    flip_frame e ~frame:(K.Pte.code_frame pte) ~what:"code-copy" ~vpn:pte.K.Pte.vpn
  | None -> (
    match pick_pte e p (fun _ -> true) with
    | None -> None
    | Some pte -> flip_frame e ~frame:(K.Pte.code_frame pte) ~what:"code" ~vpn:pte.vpn)

let inject_frame_flip_data e p =
  match pick_pte e p (fun pte -> K.Pte.is_split pte) with
  | Some pte ->
    flip_frame e ~frame:(K.Pte.data_frame pte) ~what:"data-copy" ~vpn:pte.K.Pte.vpn
  | None -> (
    match pick_pte e p (fun _ -> true) with
    | None -> None
    | Some pte -> flip_frame e ~frame:(K.Pte.data_frame pte) ~what:"data" ~vpn:pte.vpn)

let inject_alloc_exhaustion e =
  let n = 1 + Prng.int e.prng 2 in
  K.Frame_alloc.set_deny_next e.m.alloc (K.Frame_alloc.deny_next e.m.alloc + n);
  Some (Fmt.str "deny next %d frame allocations" n)

let inject_syscall_transient e =
  let n = 1 + Prng.int e.prng 2 in
  e.squeeze_left <- e.squeeze_left + n;
  Some (Fmt.str "squeeze next %d syscalls" n)

let try_inject e p = function
  | Plan.Tlb_wrong_pfn -> inject_tlb_wrong_pfn e
  | Plan.Tlb_wrong_perms -> inject_tlb_wrong_perms e
  | Plan.Tlb_phantom -> inject_tlb_phantom e p
  | Plan.Pte_flip -> inject_pte_flip e p
  | Plan.Frame_flip_code -> inject_frame_flip_code e p
  | Plan.Frame_flip_data -> inject_frame_flip_data e p
  | Plan.Alloc_exhaustion -> inject_alloc_exhaustion e
  | Plan.Syscall_transient -> inject_syscall_transient e

(* Scheduler-boundary firing: under budget, past the trigger cycle, with a
   live (and trigger-matching) current process. A class with no target at
   this boundary does not consume budget — the engine retries. *)
let fire e =
  if e.count < e.plan.budget && cycles e >= e.next_fire then begin
    match current_proc e with
    | Some p
      when (match e.plan.trigger.pid with None -> true | Some pid -> pid = p.pid) -> (
      let cls = List.nth e.plan.classes (Prng.int e.prng (List.length e.plan.classes)) in
      match try_inject e p cls with
      | Some detail ->
        e.count <- e.count + 1;
        e.injected_rev <-
          { i_class = cls; i_cycle = cycles e; i_pid = p.pid; i_detail = detail }
          :: e.injected_rev;
        if Obs.enabled e.m.obs then Obs.count e.m.obs "inject.injected";
        e.next_fire <-
          (if e.plan.trigger.every > 0 then cycles e + e.plan.trigger.every else max_int)
      | None -> ())
    | _ -> ()
  end

let arm os plan =
  let m = K.Os.machine os in
  let e =
    {
      plan;
      m;
      prng = Prng.make plan.Plan.seed;
      count = 0;
      injected_rev = [];
      next_fire = plan.trigger.at_cycle;
      squeeze_left = 0;
      suppress_invlpg = 0;
      suppressed = 0;
      pending_ecc = [];
      detections = 0;
    }
  in
  Hw.Phys.enable_ecc m.phys;
  Hw.Phys.set_ecc_hook m.phys (Some (on_ecc e));
  m.env.tlb_guard <- Some (guard e);
  m.env.invlpg <- Some (on_invlpg e);
  m.probe.inject <- Some (fun () -> fire e);
  m.probe.squeeze <- Some (on_syscall e);
  e

let disarm e =
  e.m.env.tlb_guard <- None;
  e.m.env.invlpg <- None;
  Hw.Phys.set_ecc_hook e.m.phys None;
  Hw.Phys.disable_ecc e.m.phys;
  e.m.probe.inject <- None;
  e.m.probe.squeeze <- None

(* ------------------------------------------------------------------ *)
(* Serialization (snapshot metadata)                                   *)
(* ------------------------------------------------------------------ *)

let export e =
  let pend =
    String.concat ","
      (List.map (fun (pa, good) -> Fmt.str "%d:%d" pa good) e.pending_ecc)
  in
  let inj =
    String.concat ";"
      (List.map
         (fun i ->
           Fmt.str "%s@%d@%d@%s" (Plan.class_name i.i_class) i.i_cycle i.i_pid i.i_detail)
         (injected e))
  in
  String.concat "\n"
    [
      "prng=" ^ Prng.state e.prng;
      "count=" ^ string_of_int e.count;
      "next_fire=" ^ string_of_int e.next_fire;
      "squeeze=" ^ string_of_int e.squeeze_left;
      "suppress=" ^ string_of_int e.suppress_invlpg;
      "suppressed=" ^ string_of_int e.suppressed;
      "detections=" ^ string_of_int e.detections;
      "deny=" ^ string_of_int (K.Frame_alloc.deny_next e.m.alloc);
      "pend=" ^ pend;
      "inj=" ^ inj;
    ]

let import e s =
  let corrupt msg = invalid_arg ("Engine.import: " ^ msg) in
  let fields =
    List.filter_map
      (fun line ->
        if line = "" then None
        else
          match String.index_opt line '=' with
          | None -> corrupt ("malformed line " ^ line)
          | Some i ->
            Some (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1)))
      (String.split_on_char '\n' s)
  in
  let get k =
    match List.assoc_opt k fields with Some v -> v | None -> corrupt ("missing " ^ k)
  in
  let int k = match int_of_string_opt (get k) with
    | Some v -> v
    | None -> corrupt ("bad integer for " ^ k)
  in
  Prng.set_state e.prng (get "prng");
  e.count <- int "count";
  e.next_fire <- int "next_fire";
  e.squeeze_left <- int "squeeze";
  e.suppress_invlpg <- int "suppress";
  e.suppressed <- int "suppressed";
  e.detections <- int "detections";
  K.Frame_alloc.set_deny_next e.m.alloc (int "deny");
  e.pending_ecc <-
    List.filter_map
      (fun kv ->
        if kv = "" then None
        else
          match String.index_opt kv ':' with
          | None -> corrupt ("malformed pending flip " ^ kv)
          | Some i ->
            Some
              ( int_of_string (String.sub kv 0 i),
                int_of_string (String.sub kv (i + 1) (String.length kv - i - 1)) ))
      (String.split_on_char ',' (get "pend"));
  e.injected_rev <-
    List.rev
      (List.filter_map
         (fun entry ->
           if entry = "" then None
           else
             match String.split_on_char '@' entry with
             | cls :: cycle :: pid :: rest ->
               let i_class =
                 match Plan.class_of_name cls with
                 | Some c -> c
                 | None -> corrupt ("unknown class " ^ cls)
               in
               Some
                 {
                   i_class;
                   i_cycle = int_of_string cycle;
                   i_pid = int_of_string pid;
                   i_detail = String.concat "@" rest;
                 }
             | _ -> corrupt ("malformed injection record " ^ entry))
         (String.split_on_char ';' (get "inj")));
  (* the ECC shadow was just rebuilt from the already-flipped frames by
     [arm]'s enable_ecc, which would legitimize pending flips: re-point
     the shadow bytes at their good values so the corrections still fire *)
  List.iter
    (fun (pa, good) ->
      Hw.Phys.ecc_shadow_write8 e.m.phys
        ~frame:(Hw.Phys.frame_of_addr e.m.phys pa)
        ~off:(Hw.Phys.off_of_addr e.m.phys pa)
        good)
    e.pending_ecc

let rearm os plan state =
  let e = arm os plan in
  import e state;
  e
