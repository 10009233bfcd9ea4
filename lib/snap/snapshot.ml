let version = 2
let magic = "SMEMSNP1"

type trigger = { t_pid : int; t_eip : int; t_mode : string }

(* ------------------------------------------------------------------ *)
(* State model: plain data, no live kernel references                  *)
(* ------------------------------------------------------------------ *)

(* Kernel PTEs and regions are mutable records: a snapshot holds private
   copies and hands fresh copies to every machine it restores. A region's
   [share] is derived state, recomputed by [Machine.rebuild_shares]. *)
let copy_pte (p : Kernel.Pte.t) =
  let copy_split (s : Kernel.Pte.split) = { s with code_frame = s.code_frame } in
  { p with split = Option.map copy_split p.split }

let copy_region (r : Kernel.Aspace.region) = { r with share = None }

type proc_state = {
  pr_pid : int;
  pr_name : string;
  pr_parent : int option;
  pr_gpr : int array;
  pr_eip : int;
  pr_zf : bool;
  pr_sf : bool;
  pr_tf : bool;
  pr_state : Kernel.Proc.state;
  pr_next_fd : int;
  pr_pending_fault : int option;
  pr_sebek : bool;
  pr_detections : int;
  pr_recovery : int option;
  pr_trace : int array;
  pr_trace_pos : int;
  pr_insns : int;  (* per-process retired-instruction count *)
  pr_protected : bool;
  pr_console_in : int;  (* pipe registry ids *)
  pr_console_out : int;
  pr_fds : (int * bool * int) list;  (* fd, is_write_end, pipe id *)
  pr_brk : int;
  pr_mmap_cursor : int;
  pr_regions : Kernel.Aspace.region list;  (* aspace list order preserved *)
  pr_ptes : Kernel.Pte.t list;  (* sorted by vpn *)
}

type cost_state = {
  cs_cycles : int;
  cs_insns : int;
  cs_traps : int;
  cs_split_faults : int;
  cs_single_steps : int;
  cs_syscalls : int;
  cs_ctx_switches : int;
}

type t = {
  sn_page_size : int;
  sn_frame_count : int;
  sn_protection : string;
  sn_params_hash : int;
  sn_cost : cost_state;
  sn_frames : (int * string) list;  (* non-zero frames, ascending *)
  sn_frames_skipped : int;
  sn_alloc : Kernel.Frame_alloc.state;
  sn_itlb : Hw.Tlb.state;
  sn_dtlb : Hw.Tlb.state;
  sn_pipes : (int * Kernel.Pipe.state) list;  (* registry id, state *)
  sn_procs : proc_state list;  (* sorted by pid *)
  sn_libs : (string * Kernel.Os.library) list;
  sn_runq : int list;
  sn_rng : int64;  (* the kernel PRNG's cursor *)
  sn_last_running : int option;
  sn_next_pid : int;
  sn_next_tick : int;
  sn_ticks : int;
  sn_lib_cursor : int;
  sn_events : Kernel.Event_log.event list;  (* oldest first *)
  sn_meta : (string * string) list;
  sn_trigger : trigger option;
}

let cycle t = t.sn_cost.cs_cycles
let page_size t = t.sn_page_size
let frame_count t = t.sn_frame_count
let frames_written t = List.length t.sn_frames
let frames_sparse_skipped t = t.sn_frames_skipped
let meta t = t.sn_meta
let find_meta t k = List.assoc_opt k t.sn_meta
let trigger t = t.sn_trigger

let state_name : Kernel.Proc.state -> string = function
  | Runnable -> "runnable"
  | Blocked _ -> "blocked"
  | Zombie _ -> "zombie"

let proc_summaries t =
  List.map (fun p -> (p.pr_pid, p.pr_name, state_name p.pr_state)) t.sn_procs

(* ------------------------------------------------------------------ *)
(* Checkpoint                                                          *)
(* ------------------------------------------------------------------ *)

let require_no_caches what os =
  match Hw.Mmu.icache (Kernel.Os.mmu os) with
  | Some _ ->
    invalid_arg
      (what ^ ": the cache timing model is not serialized; \
       disable ~caches to snapshot this machine")
  | None -> ()

let us_since t0 =
  let dt = (Sys.time () -. t0) *. 1e6 in
  if dt < 0. then 0 else int_of_float dt

(* Pipes are shared objects (fork-inherited fds, connect pairs): identify
   them physically and number them in first-encounter order over the
   pid-sorted process list, so the same logical machine always produces
   the same registry. *)
let export_pipes_and_procs os =
  let reg : (Kernel.Pipe.t * int) list ref = ref [] in
  let states = ref [] in
  let pipe_id p =
    match List.assq_opt p !reg with
    | Some id -> id
    | None ->
      let id = List.length !reg in
      reg := (p, id) :: !reg;
      states := (id, Kernel.Pipe.export p) :: !states;
      id
  in
  let export_proc (p : Kernel.Proc.t) =
    let console_in = pipe_id p.console_in in
    let console_out = pipe_id p.console_out in
    let fds =
      Hashtbl.fold (fun n obj acc -> (n, obj) :: acc) p.fds []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.map (fun (n, obj) ->
             match (obj : Kernel.Proc.fd_obj) with
             | Read_end pipe -> (n, false, pipe_id pipe)
             | Write_end pipe -> (n, true, pipe_id pipe))
    in
    let ptes = ref [] in
    Kernel.Aspace.iter_ptes p.aspace (fun pte -> ptes := copy_pte pte :: !ptes);
    {
      pr_pid = p.pid;
      pr_name = p.name;
      pr_parent = p.parent;
      pr_gpr = Array.copy p.regs.gpr;
      pr_eip = p.regs.eip;
      pr_zf = p.regs.zf;
      pr_sf = p.regs.sf;
      pr_tf = p.regs.tf;
      pr_state = p.state;
      pr_next_fd = p.next_fd;
      pr_pending_fault = (if p.pending_fault_addr < 0 then None else Some p.pending_fault_addr);
      pr_sebek = p.sebek_active;
      pr_detections = p.detections;
      pr_recovery = p.recovery_handler;
      pr_trace = Array.copy p.trail.ring;
      pr_trace_pos = p.trail.pos;
      pr_insns = p.p_insns;
      pr_protected = p.protected_;
      pr_console_in = console_in;
      pr_console_out = console_out;
      pr_fds = fds;
      pr_brk = p.aspace.brk;
      pr_mmap_cursor = p.aspace.mmap_cursor;
      pr_regions = List.map copy_region p.aspace.regions;
      pr_ptes = List.sort (fun (a : Kernel.Pte.t) b -> compare a.vpn b.vpn) !ptes;
    }
  in
  let procs = List.map export_proc (Kernel.Os.procs os) in
  (List.rev !states, procs)

let checkpoint ?(meta = []) ?trigger os =
  require_no_caches "Snapshot.checkpoint" os;
  let t0 = Sys.time () in
  let phys = Kernel.Os.phys os in
  let cost = Kernel.Os.cost os in
  let mmu = Kernel.Os.mmu os in
  let n = Hw.Phys.frame_count phys in
  let frames = ref [] and skipped = ref 0 in
  for frame = n - 1 downto 0 do
    if Hw.Phys.is_zero_frame phys ~frame then incr skipped
    else frames := (frame, Hw.Phys.to_string phys ~frame) :: !frames
  done;
  let pipes, procs = export_pipes_and_procs os in
  (* scheduler bookkeeping comes straight from the scheduler layer *)
  let sched : Kernel.Sched.state = Kernel.Sched.state (Kernel.Os.machine os) in
  let snap =
    {
      sn_page_size = Kernel.Os.page_size os;
      sn_frame_count = n;
      sn_protection = (Kernel.Os.protection os).name;
      sn_params_hash = Hashtbl.hash cost.params;
      sn_cost =
        {
          cs_cycles = cost.cycles;
          cs_insns = cost.insns;
          cs_traps = cost.traps;
          cs_split_faults = cost.split_faults;
          cs_single_steps = cost.single_steps;
          cs_syscalls = cost.syscalls;
          cs_ctx_switches = cost.ctx_switches;
        };
      sn_frames = !frames;
      sn_frames_skipped = !skipped;
      sn_alloc = Kernel.Frame_alloc.export (Kernel.Os.alloc os);
      sn_itlb = Hw.Tlb.export (Hw.Mmu.itlb mmu);
      sn_dtlb = Hw.Tlb.export (Hw.Mmu.dtlb mmu);
      sn_pipes = pipes;
      sn_procs = procs;
      sn_libs = Kernel.Os.libraries os;
      sn_runq = sched.s_runq;
      sn_rng = sched.s_rng;
      sn_last_running = sched.s_last_running;
      sn_next_pid = sched.s_next_pid;
      sn_next_tick = sched.s_next_tick;
      sn_ticks = sched.s_ticks;
      sn_lib_cursor = sched.s_lib_cursor;
      sn_events = Kernel.Event_log.to_list (Kernel.Os.log os);
      sn_meta = meta;
      sn_trigger = trigger;
    }
  in
  let obs = Kernel.Os.obs os in
  if Obs.enabled obs then begin
    Obs.count obs "snap.checkpoints";
    Obs.Metrics.incr ~by:!skipped (Obs.counter obs "snap.frames_sparse_skipped");
    Obs.Metrics.incr
      ~by:(List.length snap.sn_frames)
      (Obs.counter obs "snap.frames_written");
    Obs.Metrics.observe (Obs.histogram obs "snap.checkpoint_us") (us_since t0)
  end;
  snap

(* ------------------------------------------------------------------ *)
(* Restore                                                             *)
(* ------------------------------------------------------------------ *)

let compatible os snap =
  let protection = (Kernel.Os.protection os).name in
  if Kernel.Os.page_size os <> snap.sn_page_size then Error "page size mismatch"
  else if Hw.Phys.frame_count (Kernel.Os.phys os) <> snap.sn_frame_count then
    Error "frame count mismatch"
  else if protection <> snap.sn_protection then
    Error
      (Fmt.str "protection mismatch (machine %S, snapshot %S)" protection snap.sn_protection)
  else if Hashtbl.hash (Kernel.Os.cost os).params <> snap.sn_params_hash then
    Error "cost parameter mismatch"
  else Ok ()

let corrupt fmt = Fmt.kstr (fun m -> raise (Codec.Corrupt m)) fmt

(* Check the decoded values restore indexes with or sizes by, and that
   each TLB state fits its TLB (no more entries than slots, no vpn
   twice), before the machine is touched: a hostile blob that decodes
   fails here with [Codec.Corrupt] rather than with [Invalid_argument]
   halfway through a restore. *)
let validate mmu snap =
  let frames what ~first l =
    ignore
      (List.fold_left
         (fun prev frame ->
           if frame <= prev || frame >= snap.sn_frame_count then
             corrupt "%s: frame %d after %d (frame count %d)" what frame prev
               snap.sn_frame_count;
           frame)
         (first - 1) l)
  in
  frames "frames" ~first:0 (List.map fst snap.sn_frames);
  List.iter
    (fun (frame, bytes) ->
      if String.length bytes <> snap.sn_page_size then
        corrupt "frame %d holds %d bytes" frame (String.length bytes))
    snap.sn_frames;
  (* frame 0 is the allocator's reserved null frame *)
  frames "refcounts" ~first:1 (List.map fst snap.sn_alloc.s_refcounts);
  List.iter
    (fun (frame, n) -> if n <= 0 then corrupt "frame %d: refcount %d" frame n)
    snap.sn_alloc.s_refcounts;
  let gprs = Array.length (Hw.Cpu.create_regs ()).gpr in
  List.iter
    (fun ps ->
      if Array.length ps.pr_gpr <> gprs then
        corrupt "pid %d: %d registers" ps.pr_pid (Array.length ps.pr_gpr);
      let n = Array.length ps.pr_trace in
      if n = 0 || ps.pr_trace_pos < 0 || ps.pr_trace_pos >= n then
        corrupt "pid %d: trace position %d of %d" ps.pr_pid ps.pr_trace_pos n)
    snap.sn_procs;
  let tlb (s : Hw.Tlb.state) t =
    let n = List.length s.s_entries and cap = Hw.Tlb.capacity t in
    if n > cap then corrupt "%s: %d entries for %d slots" (Hw.Tlb.name t) n cap;
    List.iter
      (fun (vpn, w) ->
        if vpn < 0 || w < 0 || Hw.Tlb.frame_of_word w >= snap.sn_frame_count then
          corrupt "%s: vpn %d cached as word 0x%x (frame count %d)" (Hw.Tlb.name t) vpn w
            snap.sn_frame_count)
      s.s_entries;
    let vpns = List.map fst s.s_entries in
    if List.length (List.sort_uniq compare vpns) <> n then
      corrupt "%s: a vpn is cached twice" (Hw.Tlb.name t)
  in
  tlb snap.sn_itlb (Hw.Mmu.itlb mmu);
  tlb snap.sn_dtlb (Hw.Mmu.dtlb mmu)

let restore os snap =
  require_no_caches "Snapshot.restore" os;
  let t0 = Sys.time () in
  let phys = Kernel.Os.phys os in
  let cost = Kernel.Os.cost os in
  let mmu = Kernel.Os.mmu os in
  Result.iter_error (fun m -> invalid_arg ("Snapshot.restore: " ^ m)) (compatible os snap);
  validate mmu snap;
  (* physical memory: zero everything, then lay down the sparse frames.
     Zeroing a frame that was never written costs nothing. *)
  for frame = 0 to snap.sn_frame_count - 1 do
    Hw.Phys.fill phys ~frame 0
  done;
  List.iter
    (fun (frame, bytes) -> Hw.Phys.blit_from_string phys ~frame ~off:0 bytes)
    snap.sn_frames;
  (* the decoded-block cache is derived state: never serialized, dropped
     wholesale here and rebuilt lazily as execution resumes. (The refill
     above already bumped the generations of every watched frame; this
     also empties the table.) *)
  Option.iter Hw.Bbcache.clear (Kernel.Os.bbcache os);
  Kernel.Frame_alloc.import (Kernel.Os.alloc os) snap.sn_alloc;
  (* shared pipe objects *)
  let pipes = Hashtbl.create 16 in
  List.iter
    (fun (id, st) -> Hashtbl.replace pipes id (Kernel.Pipe.import st))
    snap.sn_pipes;
  let pipe id =
    match Hashtbl.find_opt pipes id with
    | Some p -> p
    | None -> raise (Codec.Corrupt (Fmt.str "dangling pipe id %d" id))
  in
  (* processes *)
  let build_proc (ps : proc_state) : Kernel.Proc.t =
    let regs = Hw.Cpu.create_regs () in
    Array.blit ps.pr_gpr 0 regs.gpr 0 (Array.length regs.gpr);
    regs.eip <- ps.pr_eip;
    regs.zf <- ps.pr_zf;
    regs.sf <- ps.pr_sf;
    regs.tf <- ps.pr_tf;
    let aspace = Kernel.Aspace.create ~page_size:snap.sn_page_size in
    aspace.brk <- ps.pr_brk;
    aspace.mmap_cursor <- ps.pr_mmap_cursor;
    aspace.regions <- List.map copy_region ps.pr_regions;
    List.iter (fun p -> Kernel.Aspace.set_pte aspace (copy_pte p)) ps.pr_ptes;
    let fds = Hashtbl.create 8 in
    List.iter
      (fun (n, is_write, id) ->
        Hashtbl.replace fds n
          (if is_write then Kernel.Proc.Write_end (pipe id)
           else Kernel.Proc.Read_end (pipe id)))
      ps.pr_fds;
    {
      Kernel.Proc.pid = ps.pr_pid;
      name = ps.pr_name;
      aspace;
      regs;
      fds;
      console_in = pipe ps.pr_console_in;
      console_out = pipe ps.pr_console_out;
      state = ps.pr_state;
      (* scheduler-derived, not serialized: [Sched.restore] re-marks the
         queued pids *)
      in_runq = false;
      p_insns = ps.pr_insns;
      next_fd = ps.pr_next_fd;
      pending_fault_addr = Option.value ps.pr_pending_fault ~default:(-1);
      sebek_active = ps.pr_sebek;
      parent = ps.pr_parent;
      detections = ps.pr_detections;
      recovery_handler = ps.pr_recovery;
      trail = { ring = Array.copy ps.pr_trace; pos = ps.pr_trace_pos };
      protected_ = ps.pr_protected;
    }
  in
  Kernel.Os.replace_procs os (List.map build_proc snap.sn_procs);
  Kernel.Machine.rebuild_shares (Kernel.Os.machine os);
  Kernel.Os.restore_libraries os snap.sn_libs;
  Kernel.Sched.restore (Kernel.Os.machine os)
    {
      s_runq = snap.sn_runq;
      s_rng = snap.sn_rng;
      s_last_running = snap.sn_last_running;
      s_next_pid = snap.sn_next_pid;
      s_next_tick = snap.sn_next_tick;
      s_ticks = snap.sn_ticks;
      s_lib_cursor = snap.sn_lib_cursor;
    };
  Kernel.Event_log.set_events (Kernel.Os.log os) snap.sn_events;
  (* pagetables must match last_running before the TLB state goes in, so a
     TLB miss after resume walks the right address space *)
  (match snap.sn_last_running with
  | Some pid when Kernel.Os.proc os pid <> None ->
    Kernel.Os.load_pagetables os (Option.get (Kernel.Os.proc os pid))
  | _ -> Hw.Mmu.load_cr3 mmu (fun _ -> -1));
  (* TLB contents last: load_cr3 above flushed and bumped stats; import
     overwrites both with the snapshot's exact state *)
  Hw.Tlb.import (Hw.Mmu.itlb mmu) snap.sn_itlb;
  Hw.Tlb.import (Hw.Mmu.dtlb mmu) snap.sn_dtlb;
  cost.cycles <- snap.sn_cost.cs_cycles;
  cost.insns <- snap.sn_cost.cs_insns;
  cost.traps <- snap.sn_cost.cs_traps;
  cost.split_faults <- snap.sn_cost.cs_split_faults;
  cost.single_steps <- snap.sn_cost.cs_single_steps;
  cost.syscalls <- snap.sn_cost.cs_syscalls;
  cost.ctx_switches <- snap.sn_cost.cs_ctx_switches;
  let obs = Kernel.Os.obs os in
  if Obs.enabled obs then begin
    Obs.count obs "snap.restores";
    Obs.Metrics.observe (Obs.histogram obs "snap.restore_us") (us_since t0)
  end

(* ------------------------------------------------------------------ *)
(* Binary format: each type's layout, stated once as a two-way codec   *)
(* ------------------------------------------------------------------ *)

let event : Kernel.Event_log.event Codec.t =
  let open Kernel.Event_log in
  let open Codec in
  variant "event"
    [
      case (pair int str)
        (fun (pid, path) -> Exec_shell { pid; path })
        (function Exec_shell { pid; path } -> Some (pid, path) | _ -> None);
      case (triple int int str)
        (fun (pid, eip, mode) -> Injection_detected { pid; eip; mode })
        (function Injection_detected { pid; eip; mode } -> Some (pid, eip, mode) | _ -> None);
      case (triple int int str)
        (fun (pid, eip, bytes) -> Shellcode_dump { pid; eip; bytes })
        (function Shellcode_dump { pid; eip; bytes } -> Some (pid, eip, bytes) | _ -> None);
      case (pair int int)
        (fun (pid, new_eip) -> Forensic_injected { pid; new_eip })
        (function Forensic_injected { pid; new_eip } -> Some (pid, new_eip) | _ -> None);
      case (triple int int int)
        (fun (pid, handler, faulting_eip) -> Recovery_invoked { pid; handler; faulting_eip })
        (function
          | Recovery_invoked { pid; handler; faulting_eip } -> Some (pid, handler, faulting_eip)
          | _ -> None);
      case (pair int (list int))
        (fun (pid, eips) -> Execution_trail { pid; eips })
        (function Execution_trail { pid; eips } -> Some (pid, eips) | _ -> None);
      case (pair int str)
        (fun (pid, signal) -> Signal_delivered { pid; signal })
        (function Signal_delivered { pid; signal } -> Some (pid, signal) | _ -> None);
      case (triple int str str)
        (fun (pid, name, info) -> Syscall_traced { pid; name; info })
        (function Syscall_traced { pid; name; info } -> Some (pid, name, info) | _ -> None);
      case (pair int str)
        (fun (pid, status) -> Process_exited { pid; status })
        (function Process_exited { pid; status } -> Some (pid, status) | _ -> None);
      case str
        (fun name -> Library_rejected { name })
        (function Library_rejected { name } -> Some name | _ -> None);
      case str (fun s -> Note s) (function Note s -> Some s | _ -> None);
      case (triple int str str)
        (fun (pid, kind, action) -> Fault_detected { pid; kind; action })
        (function Fault_detected { pid; kind; action } -> Some (pid, kind, action) | _ -> None);
    ]

let tlb : Hw.Tlb.state Codec.t =
  let open Codec in
  (* a cached PTE word, written as the five fields it decodes to *)
  let bit b (_, w) = w land b <> 0 in
  let entry =
    record ()
    |+ (int, fst)
    |+ (int, fun (_, w) -> Hw.Tlb.frame_of_word w)
    |+ (bool, bit Hw.Tlb.pte_user)
    |+ (bool, bit Hw.Tlb.pte_writable)
    |+ (bool, bit Hw.Tlb.pte_nx)
    |> seal (fun vpn frame user writable nx ->
           let w = Hw.Tlb.word ~frame ~writable ~user ~nx in
           if Hw.Tlb.frame_of_word w <> frame then corrupt "tlb frame %d: no PTE word holds it" frame;
           (vpn, w))
  in
  record ()
  |+ (list entry, fun (s : Hw.Tlb.state) -> s.s_entries)
  |+ (int, fun s -> s.s_hits)
  |+ (int, fun s -> s.s_misses)
  |+ (int, fun s -> s.s_flushes)
  |+ (int, fun s -> s.s_invalidations)
  |+ (int, fun s -> s.s_evictions)
  |> seal (fun s_entries s_hits s_misses s_flushes s_invalidations s_evictions ->
         { Hw.Tlb.s_entries; s_hits; s_misses; s_flushes; s_invalidations; s_evictions })

let kind : Kernel.Pte.kind Codec.t =
  Codec.enum "pte kind" Kernel.Pte.[ Code; Rodata; Data; Bss; Heap; Stack; Mixed; Lib; Mmap ]

let pte : Kernel.Pte.t Codec.t =
  let open Codec in
  let split =
    conv
      (fun (s : Kernel.Pte.split) -> (s.code_frame, s.data_frame, s.locked_to_data))
      (fun (code_frame, data_frame, locked_to_data) ->
        { Kernel.Pte.code_frame; data_frame; locked_to_data })
      (triple int int bool)
  in
  record ()
  |+ (int, fun (p : Kernel.Pte.t) -> p.vpn)
  |+ (kind, fun p -> p.kind)
  |+ (int, fun p -> p.frame)
  |+ (bool, fun p -> p.present)
  |+ (bool, fun p -> p.writable)
  |+ (bool, fun p -> p.user)
  |+ (bool, fun p -> p.nx)
  |+ (bool, fun p -> p.cow)
  |+ (bool, fun p -> p.orig_writable)
  |+ (opt split, fun p -> p.split)
  |> seal (fun vpn kind frame present writable user nx cow orig_writable split ->
         { Kernel.Pte.vpn; kind; frame; present; writable; user; nx; cow; orig_writable; split })

let region : Kernel.Aspace.region Codec.t =
  let open Codec in
  let source =
    conv
      (function Kernel.Aspace.Zero -> None | Image_bytes { base; bytes } -> Some (base, bytes))
      (function None -> Kernel.Aspace.Zero | Some (base, bytes) -> Image_bytes { base; bytes })
      (opt (pair int str))
  in
  record ()
  |+ (int, fun (r : Kernel.Aspace.region) -> r.lo)
  |+ (int, fun r -> r.hi)
  |+ (kind, fun r -> r.kind)
  |+ (bool, fun r -> r.writable)
  |+ (bool, fun r -> r.execable)
  |+ (source, fun r -> r.source)
  |> seal (fun lo hi kind writable execable source ->
         { Kernel.Aspace.lo; hi; kind; writable; execable; source; share = None })

let signals : Kernel.Proc.signal array = [| Sigsegv; Sigill; Sigkill; Sigpipe; Sigbus |]
let signal_to_int s = Option.get (Array.find_index (( = ) s) signals)

let signal_of_int n =
  if n < 0 || n >= Array.length signals then raise (Codec.Corrupt (Fmt.str "bad signal %d" n));
  signals.(n)

(* A process state on the wire: a tag (0 runnable, 1 blocked, 2 zombie),
   the blocked wait condition and the zombie exit status. *)
let proc_state_fields (st : Kernel.Proc.state) =
  match st with
  | Runnable -> (0, None, None)
  | Blocked (Read_fd fd) -> (1, Some (0, fd), None)
  | Blocked (Write_fd fd) -> (1, Some (1, fd), None)
  | Blocked (Child pid) -> (1, Some (2, pid), None)
  | Blocked (Sleep until_) -> (1, Some (3, until_), None)
  | Zombie (Exited n) -> (2, None, Some (0, n))
  | Zombie (Killed s) -> (2, None, Some (1, signal_to_int s))

let proc_state_of_fields (tag, wait, exit) : Kernel.Proc.state =
  match (tag, wait, exit) with
  | 0, _, _ -> Runnable
  | 1, Some (0, fd), _ -> Blocked (Read_fd fd)
  | 1, Some (1, fd), _ -> Blocked (Write_fd fd)
  | 1, Some (2, pid), _ -> Blocked (Child pid)
  | 1, Some (3, until_), _ -> Blocked (Sleep until_)
  | 2, _, Some (0, n) -> Zombie (Exited n)
  | 2, _, Some (1, s) -> Zombie (Killed (signal_of_int s))
  | _ -> raise (Codec.Corrupt "bad process state")

let proc =
  let open Codec in
  let state =
    conv proc_state_fields proc_state_of_fields
      (triple u8 (opt (pair int int)) (opt (pair int int)))
  in
  record ()
  |+ (int, fun p -> p.pr_pid)
  |+ (str, fun p -> p.pr_name)
  |+ (opt int, fun p -> p.pr_parent)
  |+ (int_array, fun p -> p.pr_gpr)
  |+ (int, fun p -> p.pr_eip)
  |+ (bool, fun p -> p.pr_zf)
  |+ (bool, fun p -> p.pr_sf)
  |+ (bool, fun p -> p.pr_tf)
  |+ (state, fun p -> p.pr_state)
  |+ (int, fun p -> p.pr_next_fd)
  |+ (opt int, fun p -> p.pr_pending_fault)
  |+ (bool, fun p -> p.pr_sebek)
  |+ (int, fun p -> p.pr_detections)
  |+ (opt int, fun p -> p.pr_recovery)
  |+ (int_array, fun p -> p.pr_trace)
  |+ (int, fun p -> p.pr_trace_pos)
  |+ (int, fun p -> p.pr_insns)
  |+ (bool, fun p -> p.pr_protected)
  |+ (int, fun p -> p.pr_console_in)
  |+ (int, fun p -> p.pr_console_out)
  |+ (list (triple int bool int), fun p -> p.pr_fds)
  |+ (int, fun p -> p.pr_brk)
  |+ (int, fun p -> p.pr_mmap_cursor)
  |+ (list region, fun p -> p.pr_regions)
  |+ (list pte, fun p -> p.pr_ptes)
  |> seal
       (fun pr_pid pr_name pr_parent pr_gpr pr_eip pr_zf pr_sf pr_tf pr_state pr_next_fd
            pr_pending_fault pr_sebek pr_detections pr_recovery pr_trace pr_trace_pos
            pr_insns pr_protected pr_console_in pr_console_out pr_fds pr_brk
            pr_mmap_cursor pr_regions pr_ptes ->
         { pr_pid; pr_name; pr_parent; pr_gpr; pr_eip; pr_zf; pr_sf; pr_tf; pr_state;
           pr_next_fd; pr_pending_fault; pr_sebek; pr_detections; pr_recovery; pr_trace;
           pr_trace_pos; pr_insns; pr_protected; pr_console_in; pr_console_out; pr_fds;
           pr_brk; pr_mmap_cursor; pr_regions; pr_ptes })

let cost =
  let open Codec in
  record ()
  |+ (int, fun c -> c.cs_cycles)
  |+ (int, fun c -> c.cs_insns)
  |+ (int, fun c -> c.cs_traps)
  |+ (int, fun c -> c.cs_split_faults)
  |+ (int, fun c -> c.cs_single_steps)
  |+ (int, fun c -> c.cs_syscalls)
  |+ (int, fun c -> c.cs_ctx_switches)
  |> seal
       (fun cs_cycles cs_insns cs_traps cs_split_faults cs_single_steps cs_syscalls
            cs_ctx_switches ->
         { cs_cycles; cs_insns; cs_traps; cs_split_faults; cs_single_steps; cs_syscalls;
           cs_ctx_switches })

let alloc : Kernel.Frame_alloc.state Codec.t =
  let open Codec in
  record ()
  |+ (list (pair int int), fun (a : Kernel.Frame_alloc.state) -> a.s_refcounts)
  |+ (int, fun a -> a.s_peak_in_use)
  |> seal (fun s_refcounts s_peak_in_use -> { Kernel.Frame_alloc.s_refcounts; s_peak_in_use })

let pipe : Kernel.Pipe.state Codec.t =
  let open Codec in
  record ()
  |+ (str, fun (p : Kernel.Pipe.state) -> p.s_name)
  |+ (int, fun p -> p.s_capacity)
  |+ (str, fun p -> p.s_pending)
  |+ (int, fun p -> p.s_readers)
  |+ (int, fun p -> p.s_writers)
  |+ (int, fun p -> p.s_bytes_written)
  |> seal (fun s_name s_capacity s_pending s_readers s_writers s_bytes_written ->
         { Kernel.Pipe.s_name; s_capacity; s_pending; s_readers; s_writers; s_bytes_written })

let library : Kernel.Os.library Codec.t =
  let open Codec in
  record ()
  |+ (int, fun (l : Kernel.Os.library) -> l.lib_base)
  |+ (str, fun l -> l.code)
  |+ (int, fun l -> l.lib_signature)
  |> seal (fun lib_base code lib_signature -> { Kernel.Os.lib_base; code; lib_signature })

let trigger_codec =
  let open Codec in
  record ()
  |+ (int, fun t -> t.t_pid)
  |+ (int, fun t -> t.t_eip)
  |+ (str, fun t -> t.t_mode)
  |> seal (fun t_pid t_eip t_mode -> { t_pid; t_eip; t_mode })

(* The version leads the body, so a blob from another format version is
   rejected before any of its fields are read. *)
let snapshot =
  let open Codec in
  let version =
    conv
      (fun () -> version)
      (fun v ->
        if v <> version then
          raise
            (Corrupt (Fmt.str "unsupported snapshot version %d (expected %d)" v version)))
      int
  in
  record ()
  |+ (version, fun _ -> ())
  |+ (int, fun t -> t.sn_page_size)
  |+ (int, fun t -> t.sn_frame_count)
  |+ (str, fun t -> t.sn_protection)
  |+ (int, fun t -> t.sn_params_hash)
  |+ (cost, fun t -> t.sn_cost)
  |+ (list (pair int str), fun t -> t.sn_frames)
  |+ (int, fun t -> t.sn_frames_skipped)
  |+ (alloc, fun t -> t.sn_alloc)
  |+ (tlb, fun t -> t.sn_itlb)
  |+ (tlb, fun t -> t.sn_dtlb)
  |+ (list (pair int pipe), fun t -> t.sn_pipes)
  |+ (list proc, fun t -> t.sn_procs)
  |+ (list (pair str library), fun t -> t.sn_libs)
  |+ (list int, fun t -> t.sn_runq)
  |+ (int64, fun t -> t.sn_rng)
  |+ (opt int, fun t -> t.sn_last_running)
  |+ (int, fun t -> t.sn_next_pid)
  |+ (int, fun t -> t.sn_next_tick)
  |+ (int, fun t -> t.sn_ticks)
  |+ (int, fun t -> t.sn_lib_cursor)
  |+ (list event, fun t -> t.sn_events)
  |+ (list (pair str str), fun t -> t.sn_meta)
  |+ (opt trigger_codec, fun t -> t.sn_trigger)
  |> seal
       (fun () sn_page_size sn_frame_count sn_protection sn_params_hash sn_cost sn_frames
            sn_frames_skipped sn_alloc sn_itlb sn_dtlb sn_pipes sn_procs sn_libs sn_runq
            sn_rng sn_last_running sn_next_pid sn_next_tick sn_ticks sn_lib_cursor
            sn_events sn_meta sn_trigger ->
         { sn_page_size; sn_frame_count; sn_protection; sn_params_hash; sn_cost;
           sn_frames; sn_frames_skipped; sn_alloc; sn_itlb; sn_dtlb; sn_pipes; sn_procs;
           sn_libs; sn_runq; sn_rng; sn_last_running; sn_next_pid; sn_next_tick;
           sn_ticks; sn_lib_cursor; sn_events; sn_meta; sn_trigger })

let encode t = Codec.encode ~magic snapshot t
let decode s = Codec.decode ~magic snapshot s

(* ------------------------------------------------------------------ *)
(* Manifest + files                                                    *)
(* ------------------------------------------------------------------ *)

(* A metadata value is text (a scenario name, a source) or a Codec
   blob (lib/inject and lib/prof state), which JSON cannot carry: a blob
   shows as its size. *)
let manifest t : Obs.Json.t =
  let open Obs.Json in
  let meta v =
    if String.for_all (fun c -> c >= ' ' && c <= '~') v then Str v
    else Obj [ ("bytes", Int (String.length v)) ]
  in
  Obj
    [
      ("format", Str (Fmt.str "snap/%d" version));
      ("cycle", Int t.sn_cost.cs_cycles);
      ("insns", Int t.sn_cost.cs_insns);
      ("page_size", Int t.sn_page_size);
      ("frame_count", Int t.sn_frame_count);
      ("frames_written", Int (frames_written t));
      ("frames_sparse_skipped", Int t.sn_frames_skipped);
      ("protection", Str t.sn_protection);
      ("events", Int (List.length t.sn_events));
      ( "procs",
        List
          (List.map
             (fun (pid, name, state) ->
               Obj [ ("pid", Int pid); ("name", Str name); ("state", Str state) ])
             (proc_summaries t)) );
      ("meta", Obj (List.map (fun (k, v) -> (k, meta v)) t.sn_meta));
      ( "trigger",
        match t.sn_trigger with
        | None -> Null
        | Some tr ->
          Obj
            [
              ("pid", Int tr.t_pid);
              ("eip", Str (Fmt.str "0x%08x" tr.t_eip));
              ("mode", Str tr.t_mode);
            ] );
    ]

let save ?(obs = Obs.null) ~file t =
  let bin = encode t in
  Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc bin);
  let man =
    match manifest t with
    | Obj fields -> Obs.Json.Obj (fields @ [ ("bytes", Obs.Json.Int (String.length bin)) ])
    | j -> j
  in
  Out_channel.with_open_text (file ^ ".manifest.json") (fun oc ->
      Out_channel.output_string oc (Obs.Json.to_string man);
      Out_channel.output_char oc '\n');
  if Obs.enabled obs then
    Obs.Metrics.incr ~by:(String.length bin) (Obs.counter obs "snap.bytes_written");
  String.length bin

let load file = decode (In_channel.with_open_bin file In_channel.input_all)
