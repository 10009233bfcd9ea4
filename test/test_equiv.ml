(* The determinism harness (DESIGN.md §17): the one place the suite states
   and checks the determinism contract. Machine tier: each scenario runs
   once as a baseline (block cache on, no observer, the wake check on every
   scheduler boundary) and once per axis, and every axis run must render
   the baseline's observation ([Snap.Replay.observe]) byte for byte; the
   checkpoint/restore axis is [Snap.Replay.check] at the middle one of the
   baseline's scheduler boundaries, and its checkpointing
   and resumed runs must both match the baseline. An axis declines a
   scenario only for a reason stated in the registry, and proves it was
   live, since an axis that is trivially off would pass every cell; the
   one exception is a run one quantum long, which has no boundary inside
   it and so nothing for the checkpoint axis to resume. Grid
   tier: every library producer that takes [?jobs] renders the same bytes
   at -j 1 and -j 4.

   Every baseline, axis cell and grid run happens once per process, on
   first use. The suite names slices of this registry in several places —
   the equiv group's every-axis cases, and the older contract tests of
   bbcache, obs, prof, inject, fleet, serve and wake-equiv, which are now
   single axes of it — and they all read the same runs. *)

let fuel = 2_000_000

(* --- Scenarios and axes -------------------------------------------------- *)

type axis = Exact | Obs_live | Prof_attached | Inject_armed | Checkpoint | Traced

let axes = [ Exact; Obs_live; Prof_attached; Inject_armed; Checkpoint; Traced ]

let axis_name = function
  | Exact -> "exact dispatch"
  | Obs_live -> "live obs"
  | Prof_attached -> "profiler"
  | Inject_armed -> "never-firing engine"
  | Checkpoint -> "checkpoint/restore"
  | Traced -> "syscall and event probes"

(* A scenario drives its machines to the end and renders them. [tune] runs
   on every machine it builds, before that machine runs, and [obs] goes
   into every machine it builds. [start] is set when the scenario is one
   machine run to the end: only those can be checkpointed. [rate] is the
   profiler axis's sampling rate and [never] the never-firing engine
   axis's plan. [name] is unique across the registry: it keys the memo. *)
type scenario = {
  name : string;
  drive : ?obs:Obs.t -> tune:(Kernel.Os.t -> unit) -> unit -> string;
  start : (?obs:Obs.t -> unit -> Kernel.Os.t) option;
  declines : (axis * string) list;
  rate : int;
  never : Inject.Plan.t;
}

let zero_budget = Inject.Plan.make ~budget:0 ()

let machine ?(rate = 7) ?(never = zero_budget) name
    (start : ?obs:Obs.t -> unit -> Kernel.Os.t) =
  let drive ?obs ~tune () =
    let os = start ?obs () in
    tune os;
    Snap.Replay.observe os (Kernel.Os.run ~fuel os)
  in
  { name; drive; start = Some start; declines = []; rate; never }

(* Spec scenarios get 8 MiB of guest memory: building, arming (the ECC
   shadow) and checkpointing all scale with the frame count, and none of
   them uses more than a few hundred frames. *)
let of_spec ?rate ?never name (spec : Workload.Harness.spec) =
  let spec = { spec with frames = 2048 } in
  machine ?rate ?never name (fun ?obs () -> Workload.Harness.build ?obs spec)

let driver name ?(declines = []) drive =
  let no_starter = "drives several machines or feeds input between runs" in
  {
    name;
    drive;
    start = None;
    declines = (Checkpoint, no_starter) :: declines;
    rate = 7;
    never = zero_budget;
  }

let exact os = (Kernel.Os.env os).Hw.Exec_env.cache <- None

(* The wake check rides the probe's [boundary] slot, which fires right
   after [Sched.wake]: no [Blocked] process may satisfy [Sched.ready] there.
   As [wake] only requeues ready processes, that says it requeued exactly
   what a scan of every blocked process would. No scenario here fills the
   slot itself. [marks] gets the retired instruction count at each
   boundary. *)
let install_wake_check ~marks ~violations os =
  let m = Kernel.Os.machine os in
  m.probe.boundary <-
    Some
      (fun () ->
        marks := m.cost.insns :: !marks;
        Hashtbl.iter
          (fun _ (p : Kernel.Proc.t) ->
            match p.state with
            | Blocked cond when Kernel.Sched.ready m p cond -> incr violations
            | _ -> ())
          m.procs)

(* The traced axis's observers: count every dispatched syscall and every
   logged event, and keep the log length at attach time. *)
type traced = { syscalls : int ref; events : int ref; logged_before : int }

let attach_counters os =
  let probe = Kernel.Os.probe os and syscalls = ref 0 and events = ref 0 in
  probe.syscall <- Some (fun _ -> incr syscalls);
  probe.event <- Some (fun _ -> incr events);
  { syscalls; events; logged_before = List.length (Kernel.Event_log.to_list (Kernel.Os.log os)) }

(* A cell's failures: none when it holds, else (cell, reason). *)
let same cell got want =
  if got = want then []
  else [ (cell, Fmt.str "diverged from the baseline:@.%s@.--- baseline ---@.%s" got want) ]

let live cell ok what = if ok then [] else [ (cell, "not live: " ^ what) ]

(* The memo: [memo tbl key f] runs [f] once per key. *)
let memo tbl key f =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = f () in
    Hashtbl.add tbl key v;
    v

type baseline = {
  observation : string;
  mid : int option;
      (** for a one-machine scenario, the instruction count at the middle
          one of the scheduler boundaries strictly inside the run; [None]
          when the run is one quantum, with no boundary inside *)
  faults : (string * string) list;  (** the wake check and cache liveness *)
}

let baselines : (string, baseline) Hashtbl.t = Hashtbl.create 128

(* [sc]'s baseline: block cache on, no observer, the wake check on every
   machine it builds. *)
let baseline sc =
  memo baselines sc.name @@ fun () ->
  let machines = ref [] and marks = ref [] and violations = ref 0 in
  let observation =
    sc.drive
      ~tune:(fun os ->
        machines := os :: !machines;
        install_wake_check ~marks ~violations os)
      ()
  in
  let cache_hits os =
    match Kernel.Os.bbcache os with Some c -> (Hw.Bbcache.stats c).hits | None -> 0
  in
  let wake =
    Fmt.str "%d blocked processes still ready after Sched.wake (%d boundaries)"
      !violations (List.length !marks)
  in
  let insns = List.fold_left (fun n os -> n + (Kernel.Os.cost os).insns) 0 !machines in
  let inside = List.filter (fun n -> n > 0 && n < insns) !marks in
  {
    observation;
    mid = List.nth_opt inside (List.length inside / 2);
    faults =
      (if !violations = 0 then [] else [ ("wake", wake) ])
      @ live "wake" (!marks <> []) "no scheduler boundary checked"
      @ live "baseline"
          (List.exists (fun os -> cache_hits os > 0) !machines)
          "block cache never hit";
  }

let run_axis sc axis =
  let { observation = baseline; mid; _ } = baseline sc in
  let rate = sc.rate and never = sc.never in
  let name = axis_name axis in
  let drive_collect make =
    let made = ref [] in
    let got = sc.drive ~tune:(fun os -> made := (os, make os) :: !made) () in
    (same name got baseline, !made)
  in
  match axis with
  | Exact -> same name (sc.drive ~tune:exact ()) baseline
  | Obs_live ->
    let obs = Obs.create () in
    let got = sc.drive ~obs ~tune:ignore () in
    same name got baseline @ live name (Obs.Trace.length (Obs.ring obs) > 0) "obs ring is empty"
  | Prof_attached ->
    let fs, profs = drive_collect (Prof.attach ~rate) in
    fs
    @ live name
        (List.exists (fun (_, p) -> Prof.Sampler.seen (Prof.sampler p) > 0) profs)
        "sampler saw no accesses"
  | Inject_armed ->
    let fs, engines = drive_collect (fun os -> Inject.Engine.arm os never) in
    fs
    @ live name
        (engines <> []
        && List.for_all
             (fun (os, e) ->
               Hw.Phys.ecc_enabled (Kernel.Os.phys os)
               && Inject.Engine.injected_count e = 0
               && Inject.Engine.detections e = 0)
             engines)
        "engine not armed, or its plan fired"
  | Traced ->
    let fs, counters = drive_collect attach_counters in
    let logged os = List.length (Kernel.Event_log.to_list (Kernel.Os.log os)) in
    fs
    @ live name
        (List.exists (fun (_, c) -> !(c.syscalls) > 0) counters)
        "the syscall slot saw no syscall"
    @ live name
        (List.for_all (fun (os, c) -> !(c.events) = logged os - c.logged_before) counters)
        "the event slot missed a logged event"
  | Checkpoint -> (
    match sc.start with
    | None -> [ (name, "no starter and no stated reason to decline") ]
    | Some start -> (
      match mid with
      (* one quantum: there is no mid-run state to checkpoint *)
      | None -> []
      | Some at ->
        let r = Snap.Replay.check ~at ~fuel start in
        if Option.is_none r.checkpoint then [ (name, Fmt.str "%a" Snap.Replay.pp r) ]
        else
          same (name ^ " (checkpointing run)") r.reference baseline
          @ same (name ^ " (resumed run)") r.resumed baseline))

let cells : (string * axis, (string * string) list) Hashtbl.t = Hashtbl.create 512

(* [sc]'s failed cells on its baseline and on each of [axes] it does not
   decline: none when they all hold. *)
let check sc axes =
  (baseline sc).faults
  @ List.concat_map
      (fun axis -> memo cells (sc.name, axis) (fun () -> run_axis sc axis))
      (List.filter (fun a -> not (List.mem_assoc a sc.declines)) axes)

let pp_failures name =
  Fmt.(list ~sep:(any "@.") (fun ppf (cell, m) -> pf ppf "%s x %s: %s" name cell m))

(* A test case over [scenarios] x [axes]; [[]] checks the baselines only. *)
let test_cells scenarios axes () =
  List.iter
    (fun sc ->
      match check sc axes with
      | [] -> ()
      | fs -> Alcotest.failf "%a" (pp_failures sc.name) fs)
    scenarios

(* --- The registry -------------------------------------------------------- *)

(* All but the 10k-process "scale" machine, whose every-axis run would cost
   more than the rest of the registry together; test_trap runs its one
   [Snap.Replay.check]. *)
let snap_scenarios =
  List.filter_map
    (fun (s : Snap.Scenario.t) ->
      if s.name = "scale" then None else Some (machine s.name s.start))
    Snap.Scenario.all

let golden_specs =
  let module F = Workload.Figures in
  [
    of_spec "apache/split"
      (F.apache_spec ~defense:Defense.split_standalone ~size:2048 ~requests:3);
    of_spec "gzip/nx" (F.gzip_spec ~defense:Defense.nx ~size:8192);
    of_spec "ctxsw/split" (F.ctxsw_spec ~defense:Defense.split_standalone ~iters:40);
    of_spec "ctxsw/split+cfi" (F.ctxsw_spec ~defense:Defense.split_plus_cfi ~iters:25);
    of_spec "nbench/unprotected"
      (Workload.Harness.single ~defense:Defense.unprotected
         (Workload.Guests.nbench ~iters:2 ()));
  ]

(* LRU TLBs small enough to evict constantly. Under LRU every hit moves
   its entry to the young end, so these are the scenarios where cached
   dispatch's folded fetch hits must reproduce the exact loop's
   replacement order entry for entry (no other scenario runs LRU without a sampler, which forces per-byte
   fetches). Run on the exact-dispatch axis only. *)
let lru_scenarios =
  let module G = Workload.Guests in
  List.concat_map
    (fun cap ->
      List.map
        (fun (name, (spec : Workload.Harness.spec)) ->
          of_spec
            (Fmt.str "%s/lru tlb=%d" name cap)
            {
              spec with
              itlb_capacity = Some cap;
              dtlb_capacity = Some cap;
              tlb_policy = Some Hw.Tlb.Lru;
            })
        [
          ( "numeric sort",
            Workload.Harness.single ~defense:Defense.split_standalone
              (G.numeric_sort ~rounds:1 ()) );
          ("ctxsw", Workload.Figures.ctxsw_spec ~defense:Defense.split_standalone ~iters:10);
        ])
    [ 2; 4 ]

(* Closed-loop clients sleep their think time: the scenario that crosses
   tickless idle and sleeper expiry. *)
let serve_scenario =
  of_spec "serve/split c=2"
    (Serve.spec
       (Serve.config ~defense:Defense.split_standalone ~concurrency:2 ~requests:6
          ~model:(Serve.Loadgen.Closed { think = 40_000 })
          ~resp_size:1024 ()))

(* One defense x attack matrix cell driven by hand through
   [Attack.Runner.start ~tune]. Injection rows replay [Attack.Wilander.run]
   with the shellcode on the stack (selector byte 0); reuse rows replay
   [Reuse.Campaign.run]. Renders the outcome, then the machine. *)
let matrix_cell ?obs ~tune (defense, row) =
  let session =
    match row with
    | Reuse.Campaign.Injection t ->
      let s = Attack.Runner.start ~defense ?obs ~tune (Attack.Wilander.victim t) in
      Attack.Runner.send s "\000";
      let landing = Attack.Runner.leak_addr (Attack.Runner.recv s) in
      Attack.Runner.send s (Attack.Wilander.shellcode t ~landing);
      ignore (Attack.Runner.step s : Kernel.Os.stop_reason);
      Attack.Runner.send s (Attack.Wilander.packet t ~landing);
      s
    | Reuse.Campaign.Reuse a ->
      let img = Reuse.Victim.image () in
      let s = Attack.Runner.start ~defense ?obs ~tune img in
      Attack.Runner.send s (Reuse.Campaign.packet img a);
      s
  in
  let stop = Attack.Runner.step session in
  Attack.Runner.outcome_name (Attack.Runner.outcome session) ^ "\n" ^ Snap.Replay.observe session.k stop

let matrix_scenarios =
  List.concat_map
    (fun (rname, row) ->
      List.map
        (fun (dname, d) ->
          driver (rname ^ "/" ^ dname) (fun ?obs ~tune () -> matrix_cell ?obs ~tune (d, row)))
        Reuse.Campaign.defenses)
    Reuse.Campaign.rows

(* One plan's fault-free twin and armed run, built as [Inject.run_plan]
   builds them, with [tune] applied to each machine before the engine arms.
   Renders both machines, the injected faults and the detector firings. *)
let inject_runs ?obs ~tune (plan : Inject.Plan.t) =
  let scenario = Option.get (Snap.Scenario.find plan.scenario) in
  let base = scenario.start ?obs () in
  tune base;
  let base_stop = Kernel.Os.run ~fuel:plan.fuel base in
  let os = scenario.start ?obs () in
  tune os;
  let eng = Inject.Engine.arm os plan in
  let stop = Kernel.Os.run ~fuel:plan.fuel os in
  let fault (i : Inject.Engine.injected) =
    Fmt.str "%s %d %d %s" (Inject.Plan.class_name i.i_class) i.i_cycle i.i_pid i.i_detail
  in
  String.concat "\n"
    ([ Snap.Replay.observe base base_stop; "--- armed ---"; Snap.Replay.observe os stop ]
    @ List.map fault (Inject.Engine.injected eng)
    @ [ Fmt.str "detections=%d" (Inject.Engine.detections eng) ])

let inject_scenarios =
  List.map
    (fun (plan : Inject.Plan.t) ->
      driver plan.label
        ~declines:[ (Inject_armed, "the armed run already carries the plan's engine") ]
        (fun ?obs ~tune () -> inject_runs ?obs ~tune plan))
    (Inject.default_plans ~seed:7 ())

(* --- Grid tier ----------------------------------------------------------- *)

(* A producer run once per -j value, on first use. *)
let per_jobs f =
  let j1 = lazy (f ~jobs:1) and j4 = lazy (f ~jobs:4) in
  fun ~jobs -> Lazy.force (if jobs = 1 then j1 else j4)

let reuse_matrix = per_jobs (fun ~jobs -> Reuse.Campaign.matrix ~jobs ())

let inject_seed7 =
  per_jobs (fun ~jobs -> Inject.campaign ~jobs (Inject.default_plans ~seed:7 ()))

let render_fleet render results =
  String.concat "\n"
    (List.map
       (function Ok x -> render x | Error (e : Fleet.error) -> "error: " ^ e.reason)
       results)

(* Each cell attacked under split memory and unprotected, as bench's
   Table 1 and Table 2 fan them. *)
let attack_cells run cells ~jobs =
  let render (split, unprot) =
    Attack.Runner.outcome_name split ^ " / " ^ Attack.Runner.outcome_name unprot
  in
  render_fleet render
    (Fleet.map ~jobs
       (fun c -> (run ~defense:Defense.split_standalone c, run ~defense:Defense.unprotected c))
       cells)

(* N identical guests sharing their image frames copy-on-write (or not),
   interleaved by a quantum shorter than one guest. *)
let scale_grid ~jobs =
  let module H = Workload.Harness in
  let img = Workload.Guests.scale_unit ~rounds:2 () in
  let spec (n, share) =
    H.spec
      ~label:(Fmt.str "scale-%d%s" n (if share then "" else "-noshare"))
      ~frames:4096 ~quantum:32 ~share_images:share ~defense:Defense.split_mixed_plus_nx
      (List.init n (fun _ -> H.guest img))
  in
  render_fleet
    (fun (r : H.result) ->
      Fmt.str "%s %s cycles=%d insns=%d traps=%d split=%d steps=%d ctxsw=%d peak=%d \
               itlb=%d dtlb=%d"
        r.label r.defense r.cycles r.insns r.traps r.split_faults r.single_steps
        r.ctx_switches r.peak_frames r.itlb_misses r.dtlb_misses)
    (H.run_fleet ~jobs (List.map spec [ (20, true); (20, false); (60, true) ]))

let grids =
  [
    ( "table 1 subset",
      per_jobs
        (attack_cells
           (fun ~defense (t, l) -> Attack.Wilander.run ~defense t l)
           (List.map (fun l -> (List.hd Attack.Wilander.techniques, l)) Attack.Wilander.locations))
    );
    ( "table 2 subset",
      per_jobs
        (attack_cells
           (fun ~defense id -> Attack.Realworld.run ~defense id)
           Attack.Realworld.[ Apache_ssl; Bind ]) );
    ( "fig 7",
      per_jobs (fun ~jobs ->
          String.concat "\n"
            (List.map
               (fun (p : Workload.Figures.point) -> Fmt.str "%s %h" p.x p.value)
               (Workload.Figures.fig7 ~jobs ()))) );
    ("reuse matrix", fun ~jobs -> Fmt.str "%a" Reuse.Campaign.render (reuse_matrix ~jobs));
    ("inject seed-7", fun ~jobs -> Inject.summary_string (inject_seed7 ~jobs));
    ( "quick serve sweep",
      per_jobs (fun ~jobs ->
          Serve.Sweep.render
            (Serve.Sweep.run ~jobs
               ~defenses:[ Defense.unprotected; Defense.split_standalone ]
               ~concurrencies:[ 1; 2 ] ~reps:2 ~requests:4
               ~model:(Serve.Loadgen.Closed { think = 30_000 })
               ~resp_size:1024 ())) );
    ( "tlb sweep",
      per_jobs (fun ~jobs ->
          Prof.Experiments.render_tlb_sweep
            (Prof.Experiments.tlb_sweep ~jobs ~capacities:[ 2; 16 ] ())) );
    ("COW scale grid", per_jobs scale_grid);
  ]

(* --- The generated scenario ---------------------------------------------- *)

(* Single guests (compute, syscall churn), gzip fed by its disk process,
   and scheduler traffic: blocking ping/pong over bounded consoles, fork +
   waitpid chains, pipe churn and several ping/pong pairs, with varied
   quantum and stack-jitter seed so wakeups land on different boundaries.
   Under six defenses, with the profiler rate and the never-firing plan
   varied too. *)
let gen_case =
  let module G = Workload.Guests in
  let module H = Workload.Harness in
  let open QCheck.Gen in
  let* defense =
    oneofl
      Defense.
        [ unprotected; nx; split_standalone; split_dual_cr3; cfi; split_plus_cfi ]
  in
  let* quantum = int_range 16 200 and* seed = int_range 0 1000 in
  let sched name guests ?capacity iters =
    let wiring = Option.map (fun c -> H.Pipeline { capacity = Some c }) capacity in
    ( Fmt.str "%s iters=%d q=%d seed=%d%a" name iters quantum seed
        Fmt.(option (any " cap=" ++ int))
        capacity,
      H.spec ~quantum ~seed ?wiring ~defense guests )
  in
  let ping_pong iters = [ H.guest (G.ctxsw_ping ~iters ()); H.guest (G.ctxsw_pong ()) ] in
  let* workload =
    oneof
      [
        map
          (fun iters ->
            (Fmt.str "nbench iters=%d" iters, H.single ~defense (G.nbench ~iters ())))
          (int_range 1 4);
        map
          (fun iters ->
            ( Fmt.str "syscall iters=%d" iters,
              H.single ~defense (G.syscall_bench ~iters ()) ))
          (int_range 5 40);
        map
          (fun size ->
            ( Fmt.str "gzip size=%d" size,
              H.pair ~capacity:4096 ~defense
                (G.gzip_disk ~size ~block:4096 ())
                (G.gzip ~size ()) ))
          (int_range 512 2048);
        map2
          (fun iters capacity -> sched "ctxsw" (ping_pong iters) ~capacity iters)
          (int_range 2 10) (int_range 1 64);
        map
          (fun iters -> sched "spawn" [ H.guest (G.spawn_bench ~iters ()) ] iters)
          (int_range 2 6);
        map
          (fun iters -> sched "pipe" [ H.guest (G.pipe_throughput ~iters ()) ] iters)
          (int_range 2 25);
        map3
          (fun pairs iters capacity ->
            sched
              (Fmt.str "fan pairs=%d" pairs)
              (List.concat (List.init pairs (fun _ -> ping_pong iters)))
              ~capacity iters)
          (int_range 2 3) (int_range 2 6) (int_range 1 16);
      ]
  in
  let* rate = oneofl [ 1; 7; 64 ] in
  let+ never =
    oneofl
      Inject.Plan.
        [
          ("zero-budget", make ~budget:0 ());
          ("far-cycle", make ~at_cycle:1_000_000_000 ());
          ("no-such-pid", make ~pid:999 ());
        ]
  in
  of_spec ~rate ~never:(snd never)
    (Fmt.str "%s/%s rate=%d %s" (Defense.name defense) (fst workload) rate (fst never))
    (snd workload)

(* The generated scenario over [axes]. Every such case draws the same 60
   workloads (each starts a fresh generator from one fixed seed, so every
   run of the suite draws them too), and a workload's baseline and axis
   runs are shared by every case that names them. *)
let generated ~name axes =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 19 |])
    (QCheck.Test.make ~name ~count:60
       (QCheck.make ~print:(fun sc -> sc.name) gen_case)
       (fun sc ->
         match check sc axes with
         | [] -> true
         | fs -> QCheck.Test.fail_reportf "%a" (pp_failures sc.name) fs))

(* --- Tests --------------------------------------------------------------- *)

let golden name = List.find (fun sc -> sc.name = name) golden_specs

(* The matrix cells x [axes], and the hand-driven baselines reproduce
   [Reuse.Campaign.matrix]. *)
let test_matrix axes () =
  let reference = reuse_matrix ~jobs:4 in
  Alcotest.(check int) "cells" (List.length reference) (List.length matrix_scenarios);
  List.iter2
    (fun (cell : Reuse.Campaign.cell) sc ->
      Alcotest.(check (result string string))
        (cell.attack ^ "/" ^ cell.defense ^ " reproduces the matrix")
        (Result.map Attack.Runner.outcome_name cell.result)
        (Ok (List.hd (String.split_on_char '\n' (baseline sc).observation))))
    reference matrix_scenarios;
  test_cells matrix_scenarios axes ()

let test_grid name () =
  let render = List.assoc name grids in
  let j1 = render ~jobs:1 in
  Alcotest.(check bool) (name ^ " renders something") true (j1 <> "");
  Alcotest.(check string) (name ^ " at -j 4 = -j 1") j1 (render ~jobs:4)

let suite =
  [
    Alcotest.test_case "snap scenarios x every axis" `Quick (test_cells snap_scenarios axes);
    Alcotest.test_case "golden specs x every axis" `Quick (test_cells golden_specs axes);
    Alcotest.test_case "serve x every axis" `Quick (test_cells [ serve_scenario ] axes);
    Alcotest.test_case "attack matrix x every axis" `Slow (test_matrix axes);
    Alcotest.test_case "inject seed-7 plans x every axis" `Slow
      (test_cells inject_scenarios axes);
    generated ~name:"generated workloads x every axis" axes;
  ]
  @ List.map
      (fun (name, _) -> Alcotest.test_case ("-j 1 = -j 4: " ^ name) `Quick (test_grid name))
      grids
  @ [ Alcotest.test_case "LRU TLBs x exact dispatch" `Quick (test_cells lru_scenarios [ Exact ]) ]

(* The wake check on the generated scenario's baselines: [Sched.wake]
   requeues exactly what a scan of every blocked process would. *)
let wake_suite = [ generated ~name:"indexed wake == scan wake (events, counters, verdicts)" [] ]
