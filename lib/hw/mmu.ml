type access = Exec_env.access = Fetch | Read | Write

let pp_access ppf = function
  | Fetch -> Fmt.string ppf "fetch"
  | Read -> Fmt.string ppf "read"
  | Write -> Fmt.string ppf "write"

type hw_pte = { frame : int; present : bool; writable : bool; user : bool; nx : bool }

type fill_mode = Hardware_walk | Software_fill

type fault_kind = Not_present | Protection | Tlb_miss

type fault = {
  mutable addr : int;
  mutable access : access;
  mutable kind : fault_kind;
  mutable from_user : bool;
}

let fault_kind_name = function
  | Not_present -> "not-present"
  | Protection -> "protection"
  | Tlb_miss -> "tlb-miss"

(* The one fault formatter: Cpu.pp_fault routes its page-fault arm
   through here, so the trace stream and simctl print the same key=value
   shape. *)
let pp_fault ppf f =
  Fmt.pf ppf "#PF addr=0x%08x access=%a kind=%s mode=%s" f.addr pp_access f.access
    (fault_kind_name f.kind)
    (if f.from_user then "user" else "supervisor")

(* Fault codes returned by [translate_result]. A physical address is always
   >= 0, so the sign bit is a free discriminant: negative results are an
   unboxed Error constructor with the fault kind as payload. *)
let not_present_code = -1
let protection_code = -2
let tlb_miss_code = -3

exception Pending_fault

type t = {
  phys : Phys.t;
  itlb : Tlb.t;
  dtlb : Tlb.t;
  cost : Cost.t;
  mutable nx_enabled : bool;
  mutable fill_mode : fill_mode;
  mutable walk : int -> int;
  mutable walk_code : int -> int;
      (* the walker for instruction fetches: [walk] itself, or under the
         §3.3.1 hardware variant a second pagetable register (CR3-C) *)
  mutable icache : Cache.t option;
  mutable dcache : Cache.t option;
  mutable obs : Obs.t;
  (* the execution environment: the per-machine hooks record shared with
     the CPU dispatch loop. The MMU reads [env.sample] (the lib/prof
     address-sampling hook) on every successful translation, [env.tlb_guard]
     on every TLB hit and [env.invlpg] on every [invlpg] — unboxed
     arguments, so with nothing installed the fast path pays one branch
     and zero allocation. *)
  env : Exec_env.t;
  (* the fault register: like x86's CR2, the last fault lives in one
     mutable record that every fault overwrites, so the fast path faults
     without touching the minor heap *)
  fault : fault;
}

let no_pagetable _ = -1

let create ?(itlb_capacity = 64) ?(dtlb_capacity = 64) ?(tlb_policy = Tlb.Fifo)
    ~phys ~cost () =
  {
    phys;
    itlb = Tlb.create ~policy:tlb_policy ~name:"itlb" ~capacity:itlb_capacity ();
    dtlb = Tlb.create ~policy:tlb_policy ~name:"dtlb" ~capacity:dtlb_capacity ();
    cost;
    nx_enabled = false;
    fill_mode = Hardware_walk;
    walk = no_pagetable;
    walk_code = no_pagetable;
    icache = None;
    dcache = None;
    obs = Obs.null;
    env = Exec_env.create ();
    fault = { addr = 0; access = Read; kind = Not_present; from_user = false };
  }

let phys t = t.phys
let itlb t = t.itlb
let dtlb t = t.dtlb
let cost t = t.cost
let env t = t.env
let obs t = t.obs
let set_obs t obs = t.obs <- obs
let set_nx t v = t.nx_enabled <- v
let set_fill_mode t m = t.fill_mode <- m

let enable_caches ?(lines = 512) t =
  t.icache <- Some (Cache.create ~name:"icache" ~lines ());
  t.dcache <- Some (Cache.create ~name:"dcache" ~lines ())

let icache t = t.icache
let dcache t = t.dcache

let touch_icache t paddr =
  match t.icache with
  | None -> ()
  | Some c -> if not (Cache.access c paddr) then Cost.charge t.cost t.cost.params.icache_miss

let touch_dcache_read t paddr =
  match t.dcache with
  | None -> ()
  | Some c -> if not (Cache.access c paddr) then Cost.charge t.cost t.cost.params.dcache_miss

(* A store: dcache traffic plus x86 self-modifying-code coherency — if the
   written line is in the icache it must be invalidated and the pipeline
   flushed. *)
let touch_dcache_write t paddr =
  (match t.dcache with
  | None -> ()
  | Some c -> if not (Cache.access c paddr) then Cost.charge t.cost t.cost.params.dcache_miss);
  match t.icache with
  | None -> ()
  | Some c -> if Cache.invalidate c paddr then Cost.charge t.cost t.cost.params.smc_penalty

(* Software TLB fill: what a SPARC-style TLB-load instruction does from
   inside the OS's miss handler. *)
let load_tlb t access vpn w =
  Cost.charge t.cost t.cost.params.soft_tlb_fill;
  let tlb = match access with Fetch -> t.itlb | Read | Write -> t.dtlb in
  if Obs.enabled t.obs then begin
    Obs.count t.obs "mmu.soft_fills";
    Obs.event t.obs ~cat:"hw" "mmu.soft_fill"
      ~args:[ ("tlb", Obs.Json.Str (Tlb.name tlb)); ("vpn", Obs.Json.Int vpn) ]
  end;
  Tlb.fill tlb vpn w

let flush_tlbs t =
  Tlb.flush t.itlb;
  Tlb.flush t.dtlb;
  if Obs.enabled t.obs then begin
    Obs.count t.obs "mmu.tlb_flushes";
    Obs.event t.obs ~cat:"hw" "mmu.tlb_flush"
  end

let load_cr3 t walk =
  t.walk <- walk;
  t.walk_code <- walk;
  flush_tlbs t

let reload_cr3 t walk =
  load_cr3 t (fun vpn ->
      match walk vpn with
      | Some p when p.present -> Tlb.word ~frame:p.frame ~writable:p.writable ~user:p.user ~nx:p.nx
      | Some _ | None -> -1)

(* The paper's §3.3.1 hardware modification: load both pagetable registers,
   CR3-C for instruction fetches and CR3-D for data accesses. *)
let load_cr3_dual t ~code ~data =
  t.walk <- data;
  t.walk_code <- code;
  flush_tlbs t

let invlpg t vpn =
  match t.env.invlpg with
  | Some h when h vpn -> () (* injected: the invalidation is lost *)
  | _ ->
    Tlb.invalidate t.itlb vpn;
    Tlb.invalidate t.dtlb vpn

let mask32 = Isa.Encode.mask32

(* Every architectural fault latches through here so the fault register
   and the trace stream see them uniformly, whichever path detected it.
   Returns the negative fault code for [translate_result]. *)
let record_fault t ~addr ~access ~kind ~from_user =
  let f = t.fault in
  f.addr <- addr;
  f.access <- access;
  f.kind <- kind;
  f.from_user <- from_user;
  if Obs.enabled t.obs then begin
    Obs.count t.obs "mmu.faults";
    Obs.event t.obs ~cat:"hw" "mmu.fault"
      ~args:
        [
          ("addr", Obs.Json.Int addr);
          ("access", Obs.Json.Str (Fmt.str "%a" pp_access access));
          ("kind", Obs.Json.Str (fault_kind_name kind));
        ]
  end;
  match kind with
  | Not_present -> not_present_code
  | Protection -> protection_code
  | Tlb_miss -> tlb_miss_code

let pending_fault t = t.fault

(* The x86 permission check on a PTE word, in x86's order (user, then
   write, then nx). *)
let[@inline] denied t ~from_user access w =
  (from_user && w land Tlb.pte_user = 0)
  || (access = Write && w land Tlb.pte_writable = 0)
  || (access = Fetch && t.nx_enabled && w land Tlb.pte_nx <> 0)

(* The non-raising, non-allocating translation core. Permission checks are
   performed against the cached TLB word on a hit and against the walked
   PTE word on a miss; a violating miss does not fill the TLB. *)
let rec translate_result t ~from_user access vaddr =
  let vaddr = mask32 vaddr in
  let page_size = Phys.page_size t.phys in
  let vpn = vaddr / page_size in
  let tlb = match access with Fetch -> t.itlb | Read | Write -> t.dtlb in
  let w = Tlb.find tlb vpn in
  if w >= 0 then
    if match t.env.tlb_guard with None -> false | Some g -> not (g access vpn w) then begin
      (* the guard rejected the cached word as corrupted: drop it and
         retranslate — the retry misses and refills (or faults) from the
         live pagetable *)
      Tlb.invalidate tlb vpn;
      translate_result t ~from_user access vaddr
    end
    else if denied t ~from_user access w then
      record_fault t ~addr:vaddr ~access ~kind:Protection ~from_user
    else begin
      (match t.env.sample with None -> () | Some h -> h access vpn true);
      (Tlb.frame_of_word w * page_size) + (vaddr mod page_size)
    end
  else begin
    if t.fill_mode = Software_fill then
      (* the hardware has no walker: trap to the OS miss handler *)
      record_fault t ~addr:vaddr ~access ~kind:Tlb_miss ~from_user
    else begin
      Cost.charge_walk t.cost;
      if Obs.enabled t.obs then begin
        Obs.count t.obs "mmu.walks";
        Obs.event t.obs ~cat:"hw" "mmu.walk"
          ~args:[ ("vpn", Obs.Json.Int vpn); ("tlb", Obs.Json.Str (Tlb.name tlb)) ]
      end;
      let w = (match access with Fetch -> t.walk_code | Read | Write -> t.walk) vpn in
      if w < 0 || w land Tlb.pte_present = 0 then
        record_fault t ~addr:vaddr ~access ~kind:Not_present ~from_user
      else if denied t ~from_user access w then
        record_fault t ~addr:vaddr ~access ~kind:Protection ~from_user
      else begin
        if Obs.enabled t.obs then Obs.count t.obs "mmu.fills";
        Tlb.fill tlb vpn w;
        (match t.env.sample with None -> () | Some h -> h access vpn false);
        (Tlb.frame_of_word w * page_size) + (vaddr mod page_size)
      end
    end
  end

(* The one memory-access API, for the CPU dispatch loop, the kernel and
   tools alike. One shared translation core ([paddr]) holds the fault
   plumbing of all five accessors: a negative translation raises the
   constant [Pending_fault], so the whole miss path allocates nothing and
   the caller reads the fault register at the trap boundary, via
   [pending_fault]. Each accessor then layers exactly its cache
   traffic (icache for fetches, dcache — plus SMC coherency on stores —
   for data) over the physical access. 32-bit accesses split at page
   boundaries into four byte accesses, each with its own translation and
   its own fault point, as the hardware would split them. *)
module Fast = struct
  let paddr t ~from_user access vaddr =
    let pa = translate_result t ~from_user access vaddr in
    if pa < 0 then raise Pending_fault;
    pa

  let fetch8 t ~from_user vaddr =
    let pa = paddr t ~from_user Fetch vaddr in
    touch_icache t pa;
    Phys.read8_at t.phys pa

  let read8 t ~from_user vaddr =
    let pa = paddr t ~from_user Read vaddr in
    touch_dcache_read t pa;
    Phys.read8_at t.phys pa

  let write8 t ~from_user vaddr v =
    let pa = paddr t ~from_user Write vaddr in
    touch_dcache_write t pa;
    Phys.write8_at t.phys pa v

  let read32 t ~from_user vaddr =
    let page_size = Phys.page_size t.phys in
    if mask32 vaddr mod page_size <= page_size - 4 then begin
      let pa = paddr t ~from_user Read vaddr in
      touch_dcache_read t pa;
      Phys.read32_at t.phys pa
    end
    else
      let b i = read8 t ~from_user (vaddr + i) in
      b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)

  let write32 t ~from_user vaddr v =
    let page_size = Phys.page_size t.phys in
    if mask32 vaddr mod page_size <= page_size - 4 then begin
      let pa = paddr t ~from_user Write vaddr in
      touch_dcache_write t pa;
      Phys.write32_at t.phys pa v
    end
    else
      for i = 0 to 3 do
        write8 t ~from_user (vaddr + i) ((v lsr (8 * i)) land 0xFF)
      done
end

(* The pagetable-walk DTLB-load trick of Algorithm 1: with the PTE
   temporarily unrestricted, the kernel "reads a byte off the page", which
   makes the hardware walk the pagetable and fill the data-TLB. Straight
   through [Fast]: the unrestricted read cannot fault, so there is no
   record to build. *)
let touch_read t vaddr = ignore (Fast.read8 t ~from_user:true vaddr : int)

(* Kernel store into a physical frame holding code — what the ret-gadget
   ITLB loader does when it plants its gadget byte. x86 self-modifying-code
   machinery snoops stores against pages being executed conservatively, so
   the pipeline-flush penalty applies whether or not the exact line is
   resident; a resident line is invalidated as well. *)
let kernel_code_write t ~frame ~off v =
  let paddr = Phys.addr t.phys ~frame ~off in
  (match t.dcache with
  | None -> ()
  | Some c -> if not (Cache.access c paddr) then Cost.charge t.cost t.cost.params.dcache_miss);
  (match t.icache with
  | None -> ()
  | Some c ->
    ignore (Cache.invalidate c paddr);
    Cost.charge t.cost t.cost.params.smc_penalty);
  Phys.write8 t.phys ~frame ~off v
