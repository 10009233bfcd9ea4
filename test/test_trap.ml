(* The refactor-equivalence gate for the layered kernel (trap pipeline,
   syscall table, extracted scheduler, MMU fast path).

   Golden shapes: every [Snap.Scenario] canonical machine is run to
   completion and rendered by [Snap.Replay.observe] (stop reason, the
   seven cost counters, the full kernel event log, both TLBs and a digest
   of every trail), which is compared line for line against a committed
   golden file. Any change to trap routing, syscall dispatch, scheduling
   order or MMU cost charging shows up here as a diff. Checkpoint/restore
   of these scenarios is checked by the determinism harness (test_equiv),
   which leaves out the 10k-process "scale" scenario: its one
   [Snap.Replay.check] runs here.

   Regenerate goldens only for an intentional behaviour change (see
   [Golden]). *)

let test_golden (scenario : Snap.Scenario.t) () =
  let os = scenario.start () in
  let stop = Kernel.Os.run ~fuel:2_000_000 os in
  Golden.check scenario.name ("scenario: " ^ scenario.name ^ "\n" ^ Snap.Replay.observe os stop)

let test_replay_scale () =
  let report = Snap.Replay.check (Option.get (Snap.Scenario.find "scale")).start in
  if not (Snap.Replay.ok report) then Alcotest.failf "%a" Snap.Replay.pp report

let scenario_tests =
  List.map
    (fun (s : Snap.Scenario.t) ->
      Alcotest.test_case (Fmt.str "golden shape: %s" s.name) `Quick (test_golden s))
    Snap.Scenario.all
  @ [ Alcotest.test_case "replay equivalence: scale" `Quick test_replay_scale ]

(* ------------------------------------------------------------------ *)
(* Syscall-table unit tests                                            *)
(* ------------------------------------------------------------------ *)

let mk_machine () = Kernel.Machine.create ~protection:Kernel.Protection.none ()

(* A bare process, good enough for register-only syscalls. *)
let mk_proc (m : Kernel.Machine.t) =
  let aspace = Kernel.Aspace.create ~page_size:4096 in
  let p = Kernel.Proc.create ~pid:1 ~name:"t" ~aspace in
  Hashtbl.replace m.procs 1 p;
  p

let eax (p : Kernel.Proc.t) = Hw.Cpu.sign32 (Hw.Cpu.get p.regs Isa.Reg.EAX)
let set_reg (p : Kernel.Proc.t) r v = Hw.Cpu.set p.regs r v

let test_table_registration () =
  let tbl = Kernel.Syscalls.create () in
  Kernel.Syscalls.register tbl 99 ~name:"frobnicate" (fun _m p ->
      Hw.Cpu.set p.Kernel.Proc.regs Isa.Reg.EAX 42);
  Alcotest.(check (list int)) "numbers" [ 99 ] (Kernel.Syscalls.numbers tbl);
  Alcotest.(check string) "registered name" "frobnicate" (Kernel.Syscalls.name tbl 99);
  Alcotest.(check string) "fallback name" "sys_7" (Kernel.Syscalls.name tbl 7);
  let m = mk_machine () in
  let p = mk_proc m in
  Kernel.Syscalls.dispatch tbl m p 99;
  Alcotest.(check int) "handler ran" 42 (eax p);
  (* re-registration replaces the binding *)
  Kernel.Syscalls.register tbl 99 ~name:"frobnicate2" (fun _ p ->
      Hw.Cpu.set p.Kernel.Proc.regs Isa.Reg.EAX 43);
  Kernel.Syscalls.dispatch tbl m p 99;
  Alcotest.(check int) "replaced handler ran" 43 (eax p);
  Alcotest.(check (list int)) "still one entry" [ 99 ] (Kernel.Syscalls.numbers tbl)

let test_table_unknown () =
  let tbl = Kernel.Syscalls.create () in
  let m = mk_machine () in
  let p = mk_proc m in
  Kernel.Syscalls.dispatch tbl m p 12345;
  Alcotest.(check int) "-ENOSYS" (-38) (eax p);
  Alcotest.(check string) "unknown name" "sys_12345" (Kernel.Syscalls.name tbl 12345);
  Alcotest.(check bool) "still runnable" true (Kernel.Proc.is_runnable p)

let test_table_default () =
  let tbl = Kernel.Syscalls.default () in
  Alcotest.(check (list int)) "default numbers"
    [ 1; 2; 3; 4; 6; 7; 11; 13; 20; 42; 45; 48; 90; 125; 137; 158; 162 ]
    (Kernel.Syscalls.numbers tbl);
  List.iter
    (fun (n, name) ->
      Alcotest.(check string) (Fmt.str "name of %d" n) name (Kernel.Syscalls.name tbl n))
    [ (1, "exit"); (2, "fork"); (4, "write"); (137, "uselib"); (158, "sched_yield");
      (162, "nanosleep") ];
  (* the facade's syscall_name is the same table *)
  Alcotest.(check string) "Os.syscall_name" "mmap" (Kernel.Os.syscall_name 90);
  Alcotest.(check string) "Os.syscall_name fallback" "sys_999" (Kernel.Os.syscall_name 999)

(* The default table is shared by every machine and worker domain, so it
   refuses registration; a copy built with [create] takes it. Fetching it
   allocates nothing: the trap layer does so on every syscall. *)
let test_table_default_frozen () =
  let tbl = Kernel.Syscalls.default () in
  let before = Kernel.Syscalls.numbers tbl in
  (match Kernel.Syscalls.register tbl 99 ~name:"frobnicate" (fun _ _ -> ()) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "register on the default table must raise");
  (match Kernel.Syscalls.register tbl 4 ~name:"write" (fun _ _ -> ()) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "re-registering a default entry must raise");
  Alcotest.(check (list int)) "default table unchanged" before (Kernel.Syscalls.numbers tbl);
  Alcotest.(check bool) "write still the stock handler" true
    (match Kernel.Syscalls.find tbl 4 with Some e -> e.name = "write" | None -> false);
  let copy = Kernel.Syscalls.create () in
  List.iter
    (fun n ->
      Option.iter
        (fun (e : Kernel.Syscalls.entry) -> Kernel.Syscalls.register copy n ~name:e.name e.handler)
        (Kernel.Syscalls.find tbl n))
    before;
  Kernel.Syscalls.register copy 99 ~name:"frobnicate" (fun _ _ -> ());
  Alcotest.(check string) "a copy takes registrations" "frobnicate" (Kernel.Syscalls.name copy 99);
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Kernel.Syscalls.default ()))
  done;
  Alcotest.(check bool) "default () allocates nothing" true (Gc.minor_words () -. w0 < 100.)

let test_table_efault () =
  let tbl = Kernel.Syscalls.create () in
  Kernel.Syscalls.register tbl 50 ~name:"bad_pointer" (fun _ _ -> raise Kernel.Machine.Efault);
  let m = mk_machine () in
  let p = mk_proc m in
  Kernel.Syscalls.dispatch tbl m p 50;
  Alcotest.(check int) "-EFAULT" (-14) (eax p)

let test_table_tracer () =
  let m = mk_machine () in
  let p = mk_proc m in
  let traces = ref [] in
  m.probe.syscall <- Some (fun tr -> traces := tr :: !traces);
  set_reg p Isa.Reg.EAX 20;
  set_reg p Isa.Reg.EBX 111;
  set_reg p Isa.Reg.ECX 222;
  set_reg p Isa.Reg.EDX 333;
  Kernel.Syscalls.dispatch (Kernel.Syscalls.default ()) m p 20;
  Kernel.Syscalls.dispatch (Kernel.Syscalls.default ()) m p 12345;
  match List.rev !traces with
  | [ t1; t2 ] ->
    Alcotest.(check string) "traced name" "getpid" t1.Kernel.Machine.sys_name;
    Alcotest.(check int) "traced pid" 1 t1.Kernel.Machine.sys_pid;
    (match t1.Kernel.Machine.sys_args with
    | 111, 222, 333 -> ()
    | _ -> Alcotest.fail "args not captured at entry");
    (match t1.Kernel.Machine.sys_outcome with
    | Kernel.Machine.Returned 1 -> ()
    | _ -> Alcotest.fail "expected Returned 1 (the pid)");
    Alcotest.(check string) "unknown traced too" "sys_12345" t2.Kernel.Machine.sys_name;
    (match t2.Kernel.Machine.sys_outcome with
    | Kernel.Machine.Returned -38 -> ()
    | _ -> Alcotest.fail "expected Returned -38")
  | l -> Alcotest.failf "expected 2 trace records, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Trap-pipeline unit tests                                            *)
(* ------------------------------------------------------------------ *)

let some_fault : Hw.Mmu.fault =
  { addr = 0x08048123; access = Hw.Mmu.Write; kind = Hw.Mmu.Protection; from_user = true }

(* Each trap [deliver_trap] serves lands in its own [traps.by_class]
   cell; a page fault is read from the MMU's fault register, written here
   by a translation of an unmapped address. *)
let test_classify () =
  let classes ?(tf = false) trap =
    let m =
      Kernel.Machine.create ~protection:Kernel.Protection.none ~obs:(Obs.create ()) ()
    in
    let p = mk_proc m in
    let table = Kernel.Syscalls.create () in
    Kernel.Syscalls.register table 99 ~name:"probe" (fun _ _ -> ());
    set_reg p Isa.Reg.EAX 99;
    p.regs.tf <- tf;
    if trap = Hw.Cpu.Pf then
      Alcotest.(check bool) "unmapped" true
        (Hw.Mmu.translate_result m.mmu ~from_user:true Hw.Mmu.Write some_fault.addr < 0);
    Kernel.Trap.deliver_trap ~table m p trap;
    match m.hot with
    | Some h -> List.sort compare (Obs.Metrics.label_cells h.h_traps_by_class)
    | None -> Alcotest.fail "machine not observed"
  in
  let check trap ?tf want =
    Alcotest.(check (list (pair string int)))
      (Kernel.Trap.class_name trap) want (classes ?tf trap)
  in
  check Hw.Cpu.No_trap [];
  check Hw.Cpu.Sys [ ("syscall", 1) ];
  check Hw.Cpu.Sys ~tf:true [ ("debug_trap", 1); ("syscall", 1) ];
  check Hw.Cpu.Pf [ ("page_fault", 1) ];
  check Hw.Cpu.Ud [ ("invalid_opcode", 1) ];
  check Hw.Cpu.Gp [ ("general_protection", 1) ];
  check Hw.Cpu.Db ~tf:true [ ("debug_trap", 1) ]

(* The #DB must be delivered after the primary trap of the same
   instruction — a syscall retired under the trap flag — and only if that
   trap left the process runnable. *)
let test_debug_trap_ordering () =
  let calls = ref [] in
  let protection =
    {
      Kernel.Protection.none with
      on_debug_trap =
        (fun _ _ ->
          calls := "db" :: !calls;
          true);
    }
  in
  let m = Kernel.Machine.create ~protection () in
  let p = mk_proc m in
  let table = Kernel.Syscalls.create () in
  Kernel.Syscalls.register table 99 ~name:"probe" (fun _ _ -> calls := "sys" :: !calls);
  set_reg p Isa.Reg.EAX 99;
  p.regs.tf <- true;
  Kernel.Trap.deliver_trap ~table m p Hw.Cpu.Sys;
  Alcotest.(check (list string)) "primary trap before #DB" [ "sys"; "db" ] (List.rev !calls)

let test_debug_trap_skipped_when_killed () =
  let db_calls = ref 0 in
  let protection =
    {
      Kernel.Protection.none with
      on_debug_trap =
        (fun _ _ ->
          incr db_calls;
          true);
    }
  in
  let m = Kernel.Machine.create ~protection () in
  let p = mk_proc m in
  (* exit() under the trap flag ends the process; the piggybacked #DB
     must then be dropped *)
  set_reg p Isa.Reg.EAX 1;
  set_reg p Isa.Reg.EBX 0;
  p.regs.tf <- true;
  Kernel.Trap.deliver_trap m p Hw.Cpu.Sys;
  Alcotest.(check bool) "exited" false (Kernel.Proc.is_runnable p);
  Alcotest.(check int) "#DB dropped" 0 !db_calls

let test_invalid_opcode_verdicts () =
  let run verdict =
    let protection =
      { Kernel.Protection.none with on_invalid_opcode = (fun _ _ ~eip:_ ~opcode:_ -> verdict) }
    in
    let m = Kernel.Machine.create ~protection () in
    let p = mk_proc m in
    Kernel.Trap.deliver_trap m p Hw.Cpu.Ud;
    Kernel.Proc.is_runnable p
  in
  Alcotest.(check bool) "Resume keeps running" true (run Kernel.Protection.Resume);
  Alcotest.(check bool) "Benign kills (SIGILL)" false (run Kernel.Protection.Benign);
  Alcotest.(check bool) "Kill_process kills" false (run (Kernel.Protection.Kill_process "x"))

(* Satellite: every layer prints faults through the one MMU formatter. *)
let test_unified_fault_format () =
  let mmu_s = Fmt.str "%a" Hw.Mmu.pp_fault some_fault in
  Alcotest.(check string) "canonical shape"
    "#PF addr=0x08048123 access=write kind=protection mode=user" mmu_s;
  Alcotest.(check string) "Cpu.pp_fault delegates" mmu_s
    (Fmt.str "%a" Hw.Cpu.pp_fault (Hw.Cpu.Page some_fault));
  Alcotest.(check string) "#UD shape" "#UD eip=0x00001000 opcode=0xcd"
    (Fmt.str "%a" Hw.Cpu.pp_fault (Hw.Cpu.Invalid_opcode { eip = 0x1000; opcode = 0xCD }))

(* ------------------------------------------------------------------ *)
(* The probe contract                                                  *)
(* ------------------------------------------------------------------ *)

let ping_pong () =
  Workload.Harness.build
    (Workload.Figures.ctxsw_spec ~defense:Defense.split_standalone ~iters:5)

let syscall_loop () =
  Workload.Harness.build
    (Workload.Harness.single ~defense:Defense.unprotected
       (Workload.Guests.syscall_bench ~iters:20 ()))

let run os = ignore (Kernel.Os.run ~fuel:2_000_000 os : Kernel.Os.stop_reason)

(* At every scheduler boundary [boundary] runs, then [inject]. *)
let test_probe_boundary_order () =
  let os = ping_pong () in
  let calls = Buffer.create 256 in
  let probe = Kernel.Os.probe os in
  probe.boundary <- Some (fun () -> Buffer.add_char calls 'b');
  probe.inject <- Some (fun () -> Buffer.add_char calls 'i');
  run os;
  let n = Buffer.length calls / 2 in
  Alcotest.(check bool) "several boundaries" true (n > 2);
  Alcotest.(check string) "boundary, then inject, at each boundary"
    (String.concat "" (List.init n (fun _ -> "bi")))
    (Buffer.contents calls)

(* [switch] fires once per change of the running pid: never twice for one
   pid in a row, and once for every context switch the cost model charged
   except the timer daemon's. *)
let test_probe_switch_on_change () =
  let os = ping_pong () in
  let pids = ref [] in
  (Kernel.Os.probe os).switch <- Some (fun p -> pids := p.pid :: !pids);
  run os;
  let rec distinct_neighbours = function
    | a :: (b :: _ as rest) -> a <> b && distinct_neighbours rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "no repeated pid" true (distinct_neighbours !pids);
  let m = Kernel.Os.machine os and cost = Kernel.Os.cost os in
  let daemon = cost.params.daemon_period in
  let daemon_switches = if daemon > 0 then m.ticks / daemon else 0 in
  Alcotest.(check bool) "the pair switched" true (List.length !pids > 2);
  Alcotest.(check int) "one per pid change" (cost.ctx_switches - daemon_switches)
    (List.length !pids)

(* [syscall] fires once per dispatched syscall; a squeezed one is not
   dispatched (the guest restarts it), so it is not seen. *)
let test_probe_syscall_once () =
  let traced ~squeeze_every =
    let os = syscall_loop () in
    let probe = Kernel.Os.probe os in
    let seen = ref 0 and asked = ref 0 and squeezed = ref 0 in
    probe.syscall <- Some (fun _ -> incr seen);
    if squeeze_every > 0 then
      probe.squeeze <-
        Some
          (fun _ _ ->
            incr asked;
            let sq = !asked mod squeeze_every = 0 in
            if sq then incr squeezed;
            sq);
    run os;
    (!seen, !squeezed, (Kernel.Os.cost os).syscalls)
  in
  let seen, _, charged = traced ~squeeze_every:0 in
  Alcotest.(check bool) "syscalls ran" true (seen > 20);
  Alcotest.(check int) "once per dispatched syscall" charged seen;
  let seen', squeezed, charged' = traced ~squeeze_every:3 in
  Alcotest.(check bool) "some squeezed" true (squeezed > 0);
  Alcotest.(check int) "squeezed ones unseen" (charged' - squeezed) seen';
  Alcotest.(check int) "each restarted one seen once" seen seen'

(* ------------------------------------------------------------------ *)
(* Allocation contracts of the kernel round trip                       *)
(* ------------------------------------------------------------------ *)

(* Minor-heap words [f] allocates. [Gc.minor_words] itself may box its
   result, so a "nothing" contract allows a handful of words per call of
   this, never one per operation measured. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let check_alloc_free what ~ops words =
  if words >= 64. then Alcotest.failf "%s: %.0f minor words over %d (limit 64)" what words ops

(* A pipe read or write (the whole syscall trap: charging, table dispatch,
   fd and PTE lookups, bytes between guest frames and the pipe) allocates
   nothing, as syscalls.ml's header states. *)
let test_pipe_syscall_allocation () =
  let m = mk_machine () in
  let p = mk_proc m in
  Kernel.Aspace.add_region p.aspace
    { lo = 0x100; hi = 0x102; kind = Kernel.Pte.Heap; writable = true; execable = false;
      source = Kernel.Aspace.Zero; share = None };
  let pipe = Kernel.Pipe.create ~name:"alloc" () in
  Kernel.Machine.attach_pipe m pipe;
  let rfd = Kernel.Proc.install_fd p (Read_end pipe) in
  let wfd = Kernel.Proc.install_fd p (Write_end pipe) in
  (* both buffers straddle a page boundary, so each call walks two PTEs *)
  let syscall n fd buf =
    set_reg p EAX n;
    set_reg p EBX fd;
    set_reg p ECX buf;
    set_reg p EDX 16;
    Kernel.Trap.deliver_trap m p Hw.Cpu.Sys;
    if eax p <> 16 then Alcotest.failf "syscall %d returned %d" n (eax p)
  in
  let round () =
    syscall 4 wfd 0x100ff8;
    syscall 3 rfd 0x100ffc
  in
  round ();
  let words =
    minor_words (fun () ->
        for _ = 1 to 1_000 do
          round ()
        done)
  in
  check_alloc_free "2000 pipe syscalls" ~ops:2000 words

(* The scheduler boundary — expire sleepers, wake, dequeue, switch (the
   walkers loaded are built once per address space), enqueue — and the
   pipe round trip with its blocking and waking allocate nothing: the fig
   7 ctxsw pair runs thousands of boundaries on a warm machine within the
   constant a [Sched.run] call allocates. Unprotected on the hardware
   walker, and on the two other TLB-fill hardwares: a software-managed
   TLB, whose misses after each switch go through the OS's fill hook, and
   the dual-pagetable registers. *)
let test_sched_boundary_allocation () =
  List.iter
    (fun defense ->
      let k = Workload.Harness.build (Workload.Figures.ctxsw_spec ~defense ~iters:2_000) in
      let m = Kernel.Os.machine k in
      let run fuel = ignore (Kernel.Sched.run ~fuel m : Kernel.Sched.stop_reason) in
      run 50_000;
      let switches = m.cost.ctx_switches in
      let words = minor_words (fun () -> run 4_000_000) in
      let boundaries = m.cost.ctx_switches - switches in
      let what = Fmt.str "%s: %d context switches" (Defense.name defense) boundaries in
      if boundaries < 1_000 then Alcotest.failf "%s: too few" what;
      check_alloc_free what ~ops:boundaries words)
    Defense.[ unprotected; split_soft_tlb; unprotected_soft_tlb; split_dual_cr3 ]

(* A split fetch fault and its single step: the ITLB miss on the
   restricted code page traps (#PF), Algorithm 1 unrestricts the page and
   sets the trap flag, the restarted instruction retires under it (#DB),
   and Algorithm 2 restricts the page again — all without allocating. *)
let test_split_step_allocation () =
  let image =
    Kernel.Image.build ~name:"spin"
      ~code:(fun ~lbl:_ -> Isa.Asm.[ L "top"; I Isa.Insn.Nop; I (Jmp (Lbl "top")) ])
      ~entry:"top" ()
  in
  let k =
    Workload.Harness.build (Workload.Harness.single ~defense:Defense.split_standalone image)
  in
  let m = Kernel.Os.machine k in
  ignore (Kernel.Os.run ~fuel:2_000 k : Kernel.Os.stop_reason);
  let p = List.hd (Kernel.Os.procs k) in
  let step () =
    Hw.Cpu.run_block m.env m.mmu p.regs ~max_insns:1 ~tick_limit:max_int
  in
  let round () =
    Hw.Mmu.flush_tlbs m.mmu;
    let pf = step () in
    Kernel.Trap.deliver_trap m p pf;
    let db = step () in
    Kernel.Trap.deliver_trap m p db;
    if pf <> Hw.Cpu.Pf || db <> Hw.Cpu.Db || p.regs.tf then
      Alcotest.failf "expected #PF then #DB, got %s then %s" (Kernel.Trap.class_name pf)
        (Kernel.Trap.class_name db)
  in
  round ();
  let steps = m.cost.single_steps in
  let words =
    minor_words (fun () ->
        for _ = 1 to 1_000 do
          round ()
        done)
  in
  Alcotest.(check int) "one single step per round" 1_000 (m.cost.single_steps - steps);
  check_alloc_free "1000 split fetch faults and single steps" ~ops:1000 words

(* The fig 7 Apache 1 KB pair, the kernel-bound workload: under 0.30
   minor words per instruction, measured like the [alloc.*] gate rows, on
   a second run so one-time initialization is left out. A run allocates a
   constant (~5.8k words: demand paging, block decodes, first switches)
   and nothing per request, so the pair serves 400 requests, not the
   gate's 25, to be measured in its steady state. *)
let test_apache1k_allocation () =
  let per_insn () =
    let k =
      Workload.Harness.build
        (Workload.Figures.apache_spec ~defense:Defense.split_standalone ~size:1024
           ~requests:400)
    in
    let words = minor_words (fun () -> ignore (Kernel.Os.run k : Kernel.Os.stop_reason)) in
    words /. float_of_int (Kernel.Os.cost k).insns
  in
  ignore (per_insn () : float);
  let w = per_insn () in
  if w >= 0.30 then Alcotest.failf "%.4f minor words per instruction (limit 0.30)" w

let unit_tests =
  [
    Alcotest.test_case "syscall table: registration" `Quick test_table_registration;
    Alcotest.test_case "syscall table: unknown number" `Quick test_table_unknown;
    Alcotest.test_case "syscall table: default entries" `Quick test_table_default;
    Alcotest.test_case "syscall table: default is read-only" `Quick test_table_default_frozen;
    Alcotest.test_case "syscall table: Efault maps to -EFAULT" `Quick test_table_efault;
    Alcotest.test_case "syscall table: tracer" `Quick test_table_tracer;
    Alcotest.test_case "trap pipeline: classification" `Quick test_classify;
    Alcotest.test_case "trap pipeline: #DB after primary" `Quick test_debug_trap_ordering;
    Alcotest.test_case "trap pipeline: #DB dropped on kill" `Quick
      test_debug_trap_skipped_when_killed;
    Alcotest.test_case "trap pipeline: #UD verdicts" `Quick test_invalid_opcode_verdicts;
    Alcotest.test_case "unified fault formatter" `Quick test_unified_fault_format;
    Alcotest.test_case "probe: boundary before inject" `Quick test_probe_boundary_order;
    Alcotest.test_case "probe: switch only on a pid change" `Quick test_probe_switch_on_change;
    Alcotest.test_case "probe: syscall once per dispatch, never squeezed" `Quick
      test_probe_syscall_once;
    Alcotest.test_case "pipe syscalls allocate nothing" `Quick test_pipe_syscall_allocation;
    Alcotest.test_case "scheduler boundaries allocate nothing" `Quick
      test_sched_boundary_allocation;
    Alcotest.test_case "split fetch fault and single step allocate nothing" `Quick
      test_split_step_allocation;
    Alcotest.test_case "fig 7 apache 1 KB: < 0.30 minor words per insn" `Quick
      test_apache1k_allocation;
  ]

let suite = scenario_tests @ unit_tests
