(* The kernel's state layer: the machine record itself plus the memory and
   process services every other kernel layer builds on (demand paging, COW,
   kernel access to guest memory, loader, fork, teardown, consoles,
   libraries). Trap routing lives in [Trap], syscall bodies in [Syscalls],
   the run loop in [Sched]; [Os] composes them behind the stable facade. *)

exception Rejected_image of string
exception Efault

(* A runtime-loadable library: code assembled ("prelinked") at a fixed
   base shared by all processes, with its signature. *)
type library = { lib_base : int; code : string; lib_signature : int }

(* What the syscall layer reports to an installed tracer (simctl --strace):
   one record per dispatched syscall, after the handler ran. *)
type syscall_outcome = Returned of int | Blocked | Exited

type syscall_trace = {
  sys_number : int;
  sys_name : string;
  sys_pid : int;
  sys_args : int * int * int;  (* ebx, ecx, edx at entry *)
  sys_outcome : syscall_outcome;
  sys_cycles : int;  (* service cycles, entry to return *)
}

(* The kernel half of a machine's hooks (the hardware half is
   [Hw.Exec_env.t]): one optional slot per probe point, written directly
   by whoever attaches. Writing a slot replaces its previous hook. At a
   scheduler boundary [boundary] runs before [inject], so a checkpoint
   there samples the pre-fault state. *)
type probe = {
  mutable boundary : (unit -> unit) option;
  mutable inject : (unit -> unit) option;
  mutable switch : (Proc.t -> unit) option;
  mutable syscall : (syscall_trace -> unit) option;
  mutable squeeze : (Proc.t -> int -> bool) option;
  mutable event : (Event_log.event -> unit) option;
}

(* Pre-resolved metric instruments for the hot paths of the scheduler loop
   ([None] when observability is disabled, so the common case pays one
   match per event at most). *)
type hot = {
  h_retired : Obs.Metrics.counter;
  h_syscalls : Obs.Metrics.counter;
  h_faults : Obs.Metrics.counter;
  h_fault_cycles : Obs.Metrics.histogram;
  h_syscall_cycles : Obs.Metrics.histogram;
  h_faults_by_page : Obs.Metrics.labeled;
  h_faults_by_pid : Obs.Metrics.labeled;
  h_sys_by_name : Obs.Metrics.labeled;
  h_sys_by_pid : Obs.Metrics.labeled;
  h_traps_by_class : Obs.Metrics.labeled;
}

type t = {
  phys : Hw.Phys.t;
  alloc : Frame_alloc.t;
  mmu : Hw.Mmu.t;
  env : Hw.Exec_env.t;  (* the CPU dispatch hooks record, owned by the MMU *)
  cost : Hw.Cost.t;
  log : Event_log.t;
  protection : Protection.t;
  ctx : Protection.ctx;  (* built once: every source field is immutable *)
  procs : (int, Proc.t) Hashtbl.t;
  (* parent pid -> live child pids, ascending — keeps [children_of]
     O(children) instead of a full-table scan. Maintained by fork/reap,
     rebuilt wholesale by [replace_procs]. *)
  children_index : (int, int list) Hashtbl.t;
  (* Event-driven wakeups: pids whose blocking condition may have flipped
     since the last scheduler boundary. Pipes and the zombie transition
     push here (through [wakeup_sink], one shared closure attached to every
     pipe the machine owns); [Sched.wake] drains, rechecks and enqueues.
     May hold duplicates and stale/ready-anyway pids — the recheck filters,
     so a spurious entry is harmless. *)
  mutable pending_wakeups : int list;
  mutable wakeup_sink : int -> unit;
  (* Processes blocked on [Proc.Sleep], as (wake_cycle, pid) sorted
     ascending — the earliest deadline is the head. The scheduler pops
     expired entries onto [pending_wakeups] at every boundary and, when
     nothing is runnable, jumps the clock to the head's deadline
     (tickless idle). Entries can go stale (snapshot restore rebuilds the
     list; a recheck may re-insert); stale heads are dropped lazily. *)
  mutable sleepers : (int * int) list;
  (* Loader COW: share read-only image-backed frames across spawns of
     identical guests, keyed by content digest. Off by default so existing
     scenarios keep their exact frame trajectories; the 10k-process scale
     paths opt in. *)
  share_images : bool;
  (* memoized per-image verify/digest results, keyed by physical equality —
     spawn cost must not scale with image size *)
  mutable image_memo : (Image.t * (bool * (int * string) list)) list;
  libraries : (string, library) Hashtbl.t;
  mutable lib_cursor : int;
  runq : int Queue.t;
  mutable rng : Random.State.t;
  page_size : int;
  quantum : int;
  stack_jitter_pages : int;
  verify_signatures : bool;
  mutable last_running : int;  (* pid; -1 before the first switch *)
  mutable next_pid : int;
  mutable next_tick : int;
  mutable ticks : int;
  obs : Obs.t;
  hot : hot option;
  scratch : Bytes.t;  (* page-sized staging buffer for demand paging *)
  probe : probe;
}

(* Import the point-in-time hardware statistics as gauges, so a metrics
   snapshot carries the TLB/cache/cost view without double-counting on the
   hot paths (the hardware already maintains these). *)
let install_snapshot_hook obs mmu (cost : Hw.Cost.t) =
  Obs.add_snapshot_hook obs (fun () ->
      let reg = Obs.metrics obs in
      let set name v = Obs.Metrics.set_gauge (Obs.Metrics.gauge reg name) v in
      let seti name v = set name (float_of_int v) in
      let tlb prefix t =
        let s = Hw.Tlb.stats t in
        seti (prefix ^ ".hits") s.hits;
        seti (prefix ^ ".misses") s.misses;
        seti (prefix ^ ".flushes") s.flushes;
        seti (prefix ^ ".invalidations") s.invalidations;
        seti (prefix ^ ".evictions") s.evictions;
        (* no gauge at all before any lookup: a 0% rate would be a lie *)
        Option.iter (set (prefix ^ ".hit_rate")) (Hw.Tlb.hit_rate_opt t)
      in
      tlb "tlb.itlb" (Hw.Mmu.itlb mmu);
      tlb "tlb.dtlb" (Hw.Mmu.dtlb mmu);
      let cache prefix c =
        match c with
        | None -> ()
        | Some c ->
          let s = Hw.Cache.stats c in
          seti (prefix ^ ".hits") s.hits;
          seti (prefix ^ ".misses") s.misses;
          seti (prefix ^ ".flushes") s.flushes;
          seti (prefix ^ ".invalidations") s.invalidations;
          Option.iter (set (prefix ^ ".hit_rate")) (Hw.Cache.hit_rate_opt c)
      in
      cache "cache.icache" (Hw.Mmu.icache mmu);
      cache "cache.dcache" (Hw.Mmu.dcache mmu);
      seti "cost.cycles" cost.cycles;
      seti "cost.insns" cost.insns;
      seti "cost.traps" cost.traps;
      seti "cost.split_faults" cost.split_faults;
      seti "cost.single_steps" cost.single_steps;
      seti "cost.syscalls" cost.syscalls;
      seti "cost.ctx_switches" cost.ctx_switches)

let create ?(frames = 8192) ?(page_size = 4096) ?(quantum = 200) ?cost_params
    ?(itlb_capacity = 64) ?(dtlb_capacity = 64) ?tlb_policy
    ?(stack_jitter_pages = 0) ?(verify_signatures = true) ?(seed = 7)
    ?(tlb_fill = Hw.Mmu.Hardware_walk) ?(caches = false) ?(obs = Obs.null)
    ?(share_images = false) ~protection () =
  let phys = Hw.Phys.create ~page_size ~frames () in
  let cost = Hw.Cost.create ?params:cost_params () in
  let mmu = Hw.Mmu.create ~itlb_capacity ~dtlb_capacity ?tlb_policy ~phys ~cost () in
  Hw.Mmu.set_nx mmu protection.Protection.nx_hardware;
  Hw.Mmu.set_fill_mode mmu tlb_fill;
  if caches then Hw.Mmu.enable_caches mmu;
  let env = Hw.Mmu.env mmu in
  (* the decoded-block cache is a pure dispatch optimization (equivalent to
     exact dispatch, see DESIGN.md §13); [env.cache] is the one per-machine
     switch *)
  env.Hw.Exec_env.cache <- Some (Hw.Bbcache.create ~phys ());
  let probe =
    { boundary = None; inject = None; switch = None; syscall = None; squeeze = None; event = None }
  in
  let log =
    Event_log.create ~notify:(fun e -> match probe.event with Some f -> f e | None -> ()) ()
  in
  let alloc = Frame_alloc.create phys in
  let hot =
    if not (Obs.enabled obs) then None
    else begin
      Obs.set_clock obs (fun () -> cost.cycles);
      Hw.Mmu.set_obs mmu obs;
      Event_log.attach_obs log obs;
      install_snapshot_hook obs mmu cost;
      Some
        {
          h_retired = Obs.counter obs "cpu.retired";
          h_syscalls = Obs.counter obs "os.syscalls";
          h_faults = Obs.counter obs "os.page_faults";
          h_fault_cycles = Obs.histogram obs "os.fault_service_cycles";
          h_syscall_cycles = Obs.histogram obs "os.syscall_service_cycles";
          h_faults_by_page = Obs.labeled obs "faults.by_page";
          h_faults_by_pid = Obs.labeled obs "faults.by_pid";
          h_sys_by_name = Obs.labeled obs "syscalls.by_name";
          h_sys_by_pid = Obs.labeled obs "syscalls.by_pid";
          h_traps_by_class = Obs.labeled obs "traps.by_class";
        }
    end
  in
  let t =
    {
      phys;
      alloc;
      mmu;
      env;
      cost;
      log;
      protection;
      ctx = { Protection.phys; alloc; mmu; cost; log; obs };
      procs = Hashtbl.create 8;
      children_index = Hashtbl.create 8;
      pending_wakeups = [];
      wakeup_sink = ignore;
      sleepers = [];
      share_images;
      image_memo = [];
      libraries = Hashtbl.create 4;
    lib_cursor = Layout.lib_base + 0x100000;
    runq = Queue.create ();
    rng = Random.State.make [| seed |];
    page_size;
    quantum;
    stack_jitter_pages;
    verify_signatures;
    last_running = -1;
    next_pid = 1;
    next_tick = (if cost.params.timer_tick_cycles > 0 then cost.params.timer_tick_cycles else max_int);
    ticks = 0;
    obs;
    hot;
    scratch = Bytes.create page_size;
      probe;
    }
  in
  t.wakeup_sink <- (fun pid -> t.pending_wakeups <- pid :: t.pending_wakeups);
  t

let ctx t = t.ctx

let proc t pid = Hashtbl.find_opt t.procs pid

(* pid-sorted so every traversal of the process table (wake scans, snapshot
   serialization, reporting) is deterministic regardless of hashtable
   history — a prerequisite for bit-exact replay after restore. *)
let procs t =
  Hashtbl.fold (fun _ p acc -> p :: acc) t.procs []
  |> List.sort (fun (a : Proc.t) (b : Proc.t) -> compare a.pid b.pid)

(* Install a dynamic library into the system registry, assembled at the
   next prelink base. Every process that uselib()s it gets the same
   mapping, like a prelinked shared object. *)
let register_library t name program =
  let base = t.lib_cursor in
  let assembled = Isa.Asm.assemble ~origin:base program in
  let code = assembled.Isa.Asm.code in
  let pages = (String.length code + t.page_size - 1) / t.page_size in
  t.lib_cursor <- base + ((pages + 1) * t.page_size);
  let lib_signature = Signature.sign [ name; string_of_int base; code ] in
  Hashtbl.replace t.libraries name { lib_base = base; code; lib_signature };
  base

(* Corrupt a registered library without re-signing (for tests/demos): what
   a trojaned plugin looks like to the loader. *)
let tamper_library t name =
  match Hashtbl.find_opt t.libraries name with
  | None -> ()
  | Some lib ->
    let bytes = Bytes.of_string lib.code in
    if Bytes.length bytes > 0 then
      Bytes.set bytes 0 (Char.chr (Char.code (Bytes.get bytes 0) lxor 0xFF));
    Hashtbl.replace t.libraries name { lib with code = Bytes.to_string bytes }

(* O(children), pid-ascending (the index lists are kept sorted; pids are
   never reused) — same order the seed's filtered [procs] scan produced. *)
let children_of t parent =
  match Hashtbl.find_opt t.children_index parent.Proc.pid with
  | None -> []
  | Some pids -> List.filter_map (fun pid -> Hashtbl.find_opt t.procs pid) pids

let enqueue t (p : Proc.t) =
  if not p.in_runq then begin
    p.in_runq <- true;
    Queue.add p.pid t.runq
  end

(* Remove a reaped zombie from the table and both sides of the children
   index (its own children become orphans, exactly as under the seed's
   scan — [children_of] was only ever asked about live processes). *)
let reap t (z : Proc.t) =
  Hashtbl.remove t.procs z.pid;
  (match z.parent with
  | Some pp -> (
    match Hashtbl.find_opt t.children_index pp with
    | Some cs -> Hashtbl.replace t.children_index pp (List.filter (fun c -> c <> z.pid) cs)
    | None -> ())
  | None -> ());
  Hashtbl.remove t.children_index z.pid

(* ------------------------------------------------------------------ *)
(* Wait queues                                                         *)
(* ------------------------------------------------------------------ *)

let attach_pipe t pipe = Pipe.set_wakeup pipe t.wakeup_sink

let attach_proc_pipes t (p : Proc.t) =
  attach_pipe t p.console_in;
  attach_pipe t p.console_out;
  Hashtbl.iter
    (fun _ obj ->
      match obj with
      | Proc.Read_end pipe | Proc.Write_end pipe -> attach_pipe t pipe)
    p.fds

(* Register a blocked process where its wake condition can actually flip:
   the pipe behind the fd for I/O waits; nowhere for child waits (the
   zombie transition in [terminate] notifies the parent directly). A
   mismatched or missing fd is ready by definition, so it goes straight to
   the pending list for the next boundary's recheck. *)
let register_wait t (p : Proc.t) = function
  | Proc.Read_fd fd -> (
    match Proc.fd p fd with
    | Some (Read_end pipe) -> Pipe.add_read_waiter pipe p.pid
    | Some (Write_end _) | None -> t.wakeup_sink p.pid)
  | Proc.Write_fd fd -> (
    match Proc.fd p fd with
    | Some (Write_end pipe) -> Pipe.add_write_waiter pipe p.pid
    | Some (Read_end _) | None -> t.wakeup_sink p.pid)
  | Proc.Child _ -> ()
  | Proc.Sleep until_ ->
    (* sorted (deadline, pid) insert keeps the earliest wake-up at the
       head; O(sleepers) per insert is fine at serving-benchmark
       concurrency, and the canonical order makes restore-time
       re-registration bit-identical to the live run *)
    let rec ins = function
      | [] -> [ (until_, p.pid) ]
      | ((u, q) as hd) :: tl ->
        if (u, q) <= (until_, p.pid) then hd :: ins tl
        else (until_, p.pid) :: hd :: tl
    in
    t.sleepers <- ins t.sleepers

(* Pop every sleeper whose deadline has passed onto the pending-wakeup
   list; the next boundary recheck makes them runnable (a [Proc.Sleep]
   condition is ready once the clock reaches its deadline). *)
let expire_sleepers t =
  let now = t.cost.Hw.Cost.cycles in
  let rec pop = function
    | (until_, pid) :: rest when until_ <= now ->
      t.wakeup_sink pid;
      pop rest
    | rest -> t.sleepers <- rest
  in
  pop t.sleepers

(* Earliest genuine sleeper deadline, dropping stale head entries (a pid
   that was restored, re-slept or already woke through another path) as a
   side effect. [None] means nobody is sleeping. *)
let rec earliest_sleeper t =
  match t.sleepers with
  | [] -> None
  | (until_, pid) :: rest -> (
    match proc t pid with
    | Some p when p.state = Proc.Blocked (Proc.Sleep until_) -> Some until_
    | _ ->
      t.sleepers <- rest;
      earliest_sleeper t)

(* ------------------------------------------------------------------ *)
(* Demand paging                                                       *)
(* ------------------------------------------------------------------ *)

let map_demand_page t (p : Proc.t) (region : Aspace.region) vpn =
  let finish frame =
    let pte = Pte.make ~vpn ~kind:region.kind ~frame ~writable:region.writable in
    if p.protected_ then t.protection.on_page_mapped t.ctx p region pte;
    Aspace.set_pte p.aspace pte;
    pte
  in
  let fresh () =
    let frame = Frame_alloc.alloc t.alloc in
    Aspace.blit_page_content p.aspace region vpn t.scratch;
    Hw.Phys.blit_from_bytes t.phys ~frame t.scratch ~len:t.page_size;
    frame
  in
  match region.share with
  | Some digest when not region.writable -> (
    (* Loader COW: identical read-only image pages across spawns share one
       refcounted frame. A split defense still draws its private data copy
       from this frame in [on_page_mapped]; only the text stays shared. *)
    let key = digest ^ "/" ^ string_of_int vpn in
    match Frame_alloc.find_share t.alloc key with
    | Some frame ->
      Frame_alloc.incref t.alloc frame;
      finish frame
    | None ->
      let frame = fresh () in
      Frame_alloc.register_share t.alloc ~key ~frame;
      finish frame)
  | Some _ | None -> finish (fresh ())

(* ------------------------------------------------------------------ *)
(* Copy-on-write                                                       *)
(* ------------------------------------------------------------------ *)

let cow_service t (pte : Pte.t) =
  let old = Pte.data_frame pte in
  if Frame_alloc.refcount t.alloc old > 1 then begin
    let fresh = Frame_alloc.alloc t.alloc in
    Hw.Phys.copy_frame t.phys ~src:old ~dst:fresh;
    Frame_alloc.decref t.alloc old;
    match pte.split with
    | Some s ->
      s.data_frame <- fresh;
      if pte.frame = old then pte.frame <- fresh
    | None -> pte.frame <- fresh
  end;
  pte.writable <- true;
  pte.cow <- false;
  Hw.Mmu.invlpg t.mmu pte.vpn

(* ------------------------------------------------------------------ *)
(* Kernel access to guest memory (supervisor; reaches the data copy)   *)
(* ------------------------------------------------------------------ *)

let ensure_mapped_for_kernel t (p : Proc.t) vpn ~write =
  match Aspace.pte p.aspace vpn with
  | Some pte ->
    if write then begin
      if not pte.orig_writable then raise Efault;
      if pte.cow then cow_service t pte
    end;
    pte
  | None -> (
    match Aspace.find_region p.aspace vpn with
    | Some region ->
      if write && not region.writable then raise Efault;
      map_demand_page t p region vpn
    | None -> raise Efault)

let copy_from_user t p addr len =
  let buf = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let vpn = a / t.page_size in
    let off = a mod t.page_size in
    let chunk = min (len - !pos) (t.page_size - off) in
    let pte = ensure_mapped_for_kernel t p vpn ~write:false in
    Hw.Phys.read_into t.phys ~frame:(Pte.data_frame pte) ~off buf ~pos:!pos ~len:chunk;
    pos := !pos + chunk
  done;
  Bytes.unsafe_to_string buf

let copy_to_user t p addr s =
  let len = String.length s in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let vpn = a / t.page_size in
    let off = a mod t.page_size in
    let chunk = min (len - !pos) (t.page_size - off) in
    let pte = ensure_mapped_for_kernel t p vpn ~write:true in
    Hw.Phys.write_from t.phys ~frame:(Pte.data_frame pte) ~off s ~pos:!pos ~len:chunk;
    pos := !pos + chunk
  done

(* Pipe I/O straight between guest frames and a pipe's storage, page by
   page, with no intermediate string: the kernel half of read/write. *)

(* Queue [len] guest bytes at [addr] on [pipe] (the caller bounds [len]
   by the pipe's space). Every page is mapped and checked before the first
   byte is queued, so an EFAULT on a later page leaves the pipe untouched. *)
let pipe_from_user t p pipe addr len =
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    ignore (ensure_mapped_for_kernel t p (a / t.page_size) ~write:false : Pte.t);
    pos := !pos + min (len - !pos) (t.page_size - (a mod t.page_size))
  done;
  pos := 0;
  while !pos < len do
    let a = addr + !pos in
    let off = a mod t.page_size in
    let chunk = min (len - !pos) (t.page_size - off) in
    let pte = ensure_mapped_for_kernel t p (a / t.page_size) ~write:false in
    ignore (Pipe.write_from_phys pipe t.phys ~frame:(Pte.data_frame pte) ~off ~len:chunk : int);
    pos := !pos + chunk
  done

(* Consume [n] buffered bytes of [pipe] (the caller bounds [n] by its
   level) into guest memory at [addr]. The bytes are consumed whatever
   happens: when a page faults (EFAULT) or cannot be allocated, the pages
   before it hold their bytes and the rest are dropped — what consuming
   all [n] first and then copying page by page leaves behind. *)
let pipe_to_user t p pipe addr n =
  let pos = ref 0 in
  try
    while !pos < n do
      let a = addr + !pos in
      let off = a mod t.page_size in
      let chunk = min (n - !pos) (t.page_size - off) in
      let pte = ensure_mapped_for_kernel t p (a / t.page_size) ~write:true in
      ignore (Pipe.read_to_phys pipe t.phys ~frame:(Pte.data_frame pte) ~off ~len:chunk : int);
      pos := !pos + chunk
    done
  with e ->
    Pipe.discard pipe ~max:(n - !pos);
    raise e

let read_cstring t p addr ~max =
  let buf = Buffer.create 16 in
  let rec go i =
    if i >= max then Buffer.contents buf
    else
      let vpn = (addr + i) / t.page_size in
      let off = (addr + i) mod t.page_size in
      let pte = ensure_mapped_for_kernel t p vpn ~write:false in
      let b = Hw.Phys.read8 t.phys ~frame:(Pte.data_frame pte) ~off in
      if b = 0 then Buffer.contents buf
      else begin
        Buffer.add_char buf (Char.chr b);
        go (i + 1)
      end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Process teardown                                                    *)
(* ------------------------------------------------------------------ *)

let free_aspace t (p : Proc.t) =
  Aspace.iter_ptes p.aspace (fun pte ->
      match pte.split with
      | Some s ->
        Frame_alloc.decref t.alloc s.code_frame;
        Frame_alloc.decref t.alloc s.data_frame
      | None -> Frame_alloc.decref t.alloc pte.frame);
  Hashtbl.reset p.aspace.ptes

let terminate t (p : Proc.t) status =
  free_aspace t p;
  Proc.close_all_fds p;
  p.state <- Zombie status;
  (* zombie transition: the only event that can flip a parent's Child wait
     condition, so notify it unconditionally — the wake recheck filters *)
  (match p.parent with Some pp -> t.wakeup_sink pp | None -> ());
  Event_log.add t.log (Process_exited { pid = p.pid; status = Proc.status_string status })

let kill t (p : Proc.t) signal =
  Hw.Cost.charge t.cost t.cost.params.fault_delivery;
  Event_log.add t.log (Signal_delivered { pid = p.pid; signal = Proc.signal_name signal });
  terminate t p (Proc.Killed signal)

(* Graceful degradation for allocator exhaustion reaching a trap or syscall
   boundary: contain the failure by OOM-killing the faulting process (and
   saying so in the log) instead of crashing the whole machine. *)
let oom_kill t (p : Proc.t) =
  Event_log.add t.log (Fault_detected { pid = p.pid; kind = "oom"; action = "kill" });
  if Obs.enabled t.obs then Obs.count t.obs "inject.oom_kills";
  kill t p Proc.Sigkill

(* ------------------------------------------------------------------ *)
(* Loader                                                              *)
(* ------------------------------------------------------------------ *)

(* Share keys are content digests of a segment as serialized in region
   sources (base + bytes) — not of the whole image — so a snapshot restore
   can re-derive them from the regions alone ([rebuild_shares]). *)
let share_key ~base ~bytes =
  Digest.to_hex (Digest.string (string_of_int base ^ ":" ^ bytes))

(* Per-image verify result and per-segment share keys, memoized by
   physical equality so a 10k-copy spawn loop pays the O(image) walks
   once. The memo is capped — benches build images once and spawn many
   times. *)
let image_memo t (image : Image.t) =
  match List.find_opt (fun (i, _) -> i == image) t.image_memo with
  | Some (_, entry) -> entry
  | None ->
    let verified = (not t.verify_signatures) || Image.verify image in
    let seg_keys =
      List.filter_map
        (fun (s : Image.segment) ->
          if s.writable then None
          else Some (s.base, share_key ~base:s.base ~bytes:s.bytes))
        image.segments
    in
    let entry = (verified, seg_keys) in
    t.image_memo <- (image, entry) :: List.filteri (fun i _ -> i < 15) t.image_memo;
    entry

let region_of_segment t ?share (seg : Image.segment) : Aspace.region =
  let lo = seg.base / t.page_size in
  let hi = (seg.base + String.length seg.bytes + t.page_size - 1) / t.page_size in
  let kind, execable =
    match seg.kind with
    | Image.Code -> (Pte.Code, true)
    | Image.Rodata -> (Pte.Rodata, false)
    | Image.Data -> (Pte.Data, false)
    | Image.Mixed -> (Pte.Mixed, true)
    | Image.Lib -> (Pte.Lib, true)
  in
  {
    lo;
    hi;
    kind;
    writable = seg.writable;
    execable;
    source = Image_bytes { base = seg.base; bytes = seg.bytes };
    share = (if seg.writable then None else share);
  }

let spawn t ?(eager = false) ?(protected = true) ?name (image : Image.t) =
  let verified, seg_keys = image_memo t image in
  if not verified then begin
    Event_log.add t.log (Library_rejected { name = image.name });
    raise (Rejected_image image.name)
  end;
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let name = Option.value name ~default:image.name in
  let aspace = Aspace.create ~page_size:t.page_size in
  List.iter
    (fun (seg : Image.segment) ->
      let share = if t.share_images then List.assoc_opt seg.base seg_keys else None in
      Aspace.add_region aspace (region_of_segment t ?share seg))
    image.segments;
  if image.bss_size > 0 then
    Aspace.add_region aspace
      {
        lo = Layout.bss_base / t.page_size;
        hi = (Layout.bss_base + image.bss_size + t.page_size - 1) / t.page_size;
        kind = Pte.Bss;
        writable = true;
        execable = false;
        source = Zero;
        share = None;
      };
  Aspace.add_region aspace
    {
      lo = Layout.heap_base / t.page_size;
      hi = Layout.heap_limit / t.page_size;
      kind = Pte.Heap;
      writable = true;
      execable = false;
      source = Zero;
      share = None;
    };
  Aspace.add_region aspace
    {
      lo = (Layout.stack_top - Layout.stack_max_bytes) / t.page_size;
      hi = Layout.stack_top / t.page_size;
      kind = Pte.Stack;
      writable = true;
      execable = false;
      source = Zero;
      share = None;
    };
  let p = Proc.create ~pid ~name ~aspace in
  attach_proc_pipes t p;
  p.protected_ <- protected;
  p.regs.eip <- image.entry;
  let jitter =
    if t.stack_jitter_pages > 0 then
      Random.State.int t.rng t.stack_jitter_pages * t.page_size
    else 0
  in
  Hw.Cpu.set p.regs Isa.Reg.ESP (Layout.initial_esp - jitter);
  if eager then
    List.iter
      (fun (r : Aspace.region) ->
        match r.source with
        | Image_bytes _ ->
          for vpn = r.lo to r.hi - 1 do
            ignore (map_demand_page t p r vpn)
          done
        | Zero -> ())
      (Aspace.regions aspace);
  Hashtbl.replace t.procs pid p;
  enqueue t p;
  p

(* ------------------------------------------------------------------ *)
(* Console / wiring                                                    *)
(* ------------------------------------------------------------------ *)

let feed_stdin _t (p : Proc.t) s = Pipe.write p.console_in s
let close_stdin _t (p : Proc.t) = Pipe.close_writer p.console_in
let read_stdout _t (p : Proc.t) = Pipe.drain p.console_out

let connect ?capacity t (a : Proc.t) (b : Proc.t) =
  let ab = Pipe.create ?capacity ~name:(Fmt.str "%s->%s" a.name b.name) () in
  let ba = Pipe.create ?capacity ~name:(Fmt.str "%s->%s" b.name a.name) () in
  attach_pipe t ab;
  attach_pipe t ba;
  ignore (Proc.close_fd a 1);
  ignore (Proc.close_fd b 0);
  ignore (Proc.close_fd b 1);
  ignore (Proc.close_fd a 0);
  Proc.replace_fd a 1 (Write_end ab);
  Proc.replace_fd b 0 (Read_end ab);
  Proc.replace_fd b 1 (Write_end ba);
  Proc.replace_fd a 0 (Read_end ba);
  (* either endpoint may be blocked on the fds just rewired — re-register
     against the new pipes at the next boundary *)
  t.wakeup_sink a.pid;
  t.wakeup_sink b.pid

(* ------------------------------------------------------------------ *)
(* Fork                                                                *)
(* ------------------------------------------------------------------ *)

let clone_pte t (pte : Pte.t) : Pte.t =
  let split =
    Option.map
      (fun (s : Pte.split) ->
        Frame_alloc.incref t.alloc s.code_frame;
        Frame_alloc.incref t.alloc s.data_frame;
        { s with code_frame = s.code_frame })
      pte.split
  in
  if split = None then Frame_alloc.incref t.alloc pte.frame;
  {
    pte with
    split;
    frame = pte.frame;
  }

let do_fork t (parent : Proc.t) =
  Hw.Cost.charge t.cost
    (t.cost.params.fork_base
    + (t.cost.params.fork_per_page * Aspace.mapped_count parent.aspace));
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let aspace = Aspace.create ~page_size:t.page_size in
  aspace.brk <- parent.aspace.brk;
  aspace.mmap_cursor <- parent.aspace.mmap_cursor;
  aspace.regions <-
    List.map (fun (r : Aspace.region) -> { r with hi = r.hi }) parent.aspace.regions;
  Aspace.iter_ptes parent.aspace (fun pte ->
      let child_pte = clone_pte t pte in
      if pte.orig_writable then begin
        pte.writable <- false;
        pte.cow <- true;
        child_pte.writable <- false;
        child_pte.cow <- true
      end;
      Aspace.set_pte aspace child_pte);
  (* The parent's DTLB may cache stale writable mappings. *)
  Hw.Mmu.flush_tlbs t.mmu;
  let child = Proc.create ~pid ~name:(Fmt.str "%s.%d" parent.name pid) ~aspace in
  attach_proc_pipes t child;
  (* Inherit the parent's descriptor table (drop the fresh console fds). *)
  Proc.close_all_fds child;
  Hashtbl.iter
    (fun n obj ->
      (match obj with
      | Proc.Read_end pipe -> Pipe.add_reader pipe
      | Proc.Write_end pipe -> Pipe.add_writer pipe);
      Hashtbl.replace child.fds n obj)
    parent.fds;
  child.next_fd <- parent.next_fd;
  child.protected_ <- parent.protected_;
  child.sebek_active <- parent.sebek_active;
  child.recovery_handler <- parent.recovery_handler;
  Array.blit parent.regs.gpr 0 child.regs.gpr 0 8;
  child.regs.eip <- parent.regs.eip;
  child.regs.zf <- parent.regs.zf;
  child.regs.sf <- parent.regs.sf;
  child.regs.tf <- false;
  Hw.Cpu.set child.regs Isa.Reg.EAX 0;
  child.parent <- Some parent.pid;
  Hashtbl.replace t.procs pid child;
  (* pids are monotonic, so appending keeps the index ascending *)
  let siblings = Option.value (Hashtbl.find_opt t.children_index parent.pid) ~default:[] in
  Hashtbl.replace t.children_index parent.pid (siblings @ [ pid ]);
  enqueue t child;
  pid

(* ------------------------------------------------------------------ *)
(* Misc services shared by the syscall and trap layers                 *)
(* ------------------------------------------------------------------ *)

(* Callers build [info] only under [p.sebek_active], so a process that is
   not under post-detection tracing formats nothing. *)
let sebek_trace t (p : Proc.t) name info =
  if p.sebek_active then Event_log.add t.log (Syscall_traced { pid = p.pid; name; info })

let preview s =
  let n = String.length s in
  let clean =
    String.init (min n 40) (fun i ->
        let c = String.unsafe_get s i in
        if Char.code c >= 32 && Char.code c < 127 then c else '.')
  in
  if n > 40 then clean ^ "..." else clean

let block t (p : Proc.t) cond =
  (* Rewind over [int 0x80] so the syscall re-executes on wake-up. *)
  p.regs.eip <- p.regs.eip - 2;
  p.state <- Blocked cond;
  register_wait t p cond

let load_pagetables t (p : Proc.t) =
  if t.protection.dual_pagetables then
    Hw.Mmu.reload_cr3_dual t.mmu
      ~code:(Aspace.walk_code_view p.aspace)
      ~data:(Aspace.walk_data_view p.aspace)
  else Hw.Mmu.reload_cr3 t.mmu (Aspace.walk p.aspace)

(* ------------------------------------------------------------------ *)
(* Snapshot support: raw registry exposure                             *)
(* ------------------------------------------------------------------ *)

let libraries t =
  Hashtbl.fold (fun name lib acc -> (name, lib) :: acc) t.libraries []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let restore_libraries t libs =
  Hashtbl.reset t.libraries;
  List.iter (fun (name, lib) -> Hashtbl.replace t.libraries name lib) libs

let replace_procs t ps =
  Hashtbl.reset t.procs;
  List.iter (fun (p : Proc.t) -> Hashtbl.replace t.procs p.pid p) ps;
  (* Re-derive every index the live machine maintains incrementally. *)
  Hashtbl.reset t.children_index;
  List.iter
    (fun (p : Proc.t) ->
      match p.parent with
      | Some pp ->
        let siblings = Option.value (Hashtbl.find_opt t.children_index pp) ~default:[] in
        Hashtbl.replace t.children_index pp (siblings @ [ p.pid ])
      | None -> ())
    ps;
  Hashtbl.iter
    (fun pp cs -> Hashtbl.replace t.children_index pp (List.sort compare cs))
    (Hashtbl.copy t.children_index);
  (* Restored pipes carry no waiter registrations, so seed the pending list
     with every blocked pid: the first wake rechecks them all (exactly the
     seed's scan) and re-registers the still-blocked ones on their pipes. *)
  List.iter (fun (p : Proc.t) -> attach_proc_pipes t p) ps;
  (* The sleeper queue is re-derived the same way: the recheck of a pid
     still blocked on [Sleep] re-inserts it (register_wait), and the
     sorted insert reproduces the canonical order. *)
  t.sleepers <- [];
  t.pending_wakeups <- [];
  List.iter
    (fun (p : Proc.t) ->
      match p.state with Proc.Blocked _ -> t.wakeup_sink p.pid | _ -> ())
    ps

(* Re-derive the shared-frame registry after a snapshot restore. The
   registry is perf-only state and is not serialized, but replay
   determinism still requires a restored machine to share exactly as the
   original did — frame-pool pressure is observable through OOM kills.
   Share keys are content digests of the serialized region source, so this
   walk reconstructs the registry from the regions alone: under
   [share_images], every non-split PTE of a read-only image-backed region
   came from the share path, and all its sharers hold the same frame.
   (A region mprotect-ed writable is excluded — its restored PTEs were
   privatized before the snapshot.) *)
let rebuild_shares t =
  if t.share_images then begin
    (* The shared frame of a key is held as [pte.frame] by unsplit sharers
       and lives on as the split structure's code frame after a page
       splits, so collect code-frame votes across every holder and
       register the majority frame (ties break to the lowest frame — only
       reachable when a Forensics privatization left a lone dissenting
       copy, where either pick keeps replay deterministic). *)
    let votes : (string, (int, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (p : Proc.t) ->
        List.iter
          (fun (r : Aspace.region) ->
            match r.source with
            | Aspace.Image_bytes { base; bytes } when not r.writable ->
              let key = share_key ~base ~bytes in
              r.share <- Some key;
              for vpn = r.lo to r.hi - 1 do
                match Aspace.pte p.aspace vpn with
                | Some pte ->
                  let frame = Pte.code_frame pte in
                  let k = key ^ "/" ^ string_of_int vpn in
                  let tbl =
                    match Hashtbl.find_opt votes k with
                    | Some tbl -> tbl
                    | None ->
                      let tbl = Hashtbl.create 4 in
                      Hashtbl.replace votes k tbl;
                      tbl
                  in
                  Hashtbl.replace tbl frame
                    (1 + Option.value (Hashtbl.find_opt tbl frame) ~default:0)
                | None -> ()
              done
            | Aspace.Image_bytes _ | Aspace.Zero -> ())
          (Aspace.regions p.aspace))
      (procs t);
    Hashtbl.iter
      (fun k tbl ->
        let frame, _ =
          Hashtbl.fold
            (fun f n (bf, bn) ->
              if n > bn || (n = bn && f < bf) then (f, n) else (bf, bn))
            tbl (max_int, 0)
        in
        Frame_alloc.register_share t.alloc ~key:k ~frame)
      votes
  end
