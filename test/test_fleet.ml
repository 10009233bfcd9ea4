(* The fleet executor: per-job failure containment, ordering and stats,
   and the spec-based harness entrypoints. That every producer renders the
   same at -j 1 and -j 4 is the grid tier of the determinism harness
   (test_equiv.ml); the first case runs its COW scale grid cell. *)

let specs_small () =
  [
    Workload.Figures.ctxsw_spec ~defense:Defense.unprotected ~iters:10;
    Workload.Figures.ctxsw_spec ~defense:Defense.split_standalone ~iters:10;
    Workload.Figures.apache_spec ~defense:Defense.split_standalone ~size:2048 ~requests:3;
    Workload.Figures.gzip_spec ~defense:Defense.unprotected ~size:8192;
    Workload.Harness.single ~defense:Defense.split_standalone
      (Workload.Guests.nbench ~iters:3 ());
    Workload.Harness.single ~defense:Defense.unprotected
      (Workload.Guests.syscall_bench ~iters:50 ());
  ]

(* A deliberately crashing spec (fuel too small) yields Error while its
   siblings complete normally. *)
let test_failure_containment () =
  let crashing =
    Workload.Harness.single ~label:"doomed" ~fuel:10 ~defense:Defense.unprotected
      (Workload.Guests.nbench ~iters:1000 ())
  in
  let specs =
    [
      Workload.Figures.ctxsw_spec ~defense:Defense.unprotected ~iters:10;
      crashing;
      Workload.Figures.ctxsw_spec ~defense:Defense.split_standalone ~iters:10;
    ]
  in
  let results = Workload.Harness.run_fleet ~jobs:3 specs in
  (match results with
  | [ Ok _; Error e; Ok _ ] ->
    Alcotest.(check int) "failed job index" 1 e.Fleet.index;
    Alcotest.(check string) "failed job label" "doomed" e.Fleet.label;
    Alcotest.(check bool) "reason mentions the failure" true
      (String.length e.Fleet.reason > 0)
  | _ -> Alcotest.fail "expected [Ok; Error; Ok]");
  (* run_fleet_exn surfaces the same failure as Did_not_finish *)
  match Workload.Harness.run_fleet_exn ~jobs:2 specs with
  | exception Workload.Harness.Did_not_finish _ -> ()
  | _ -> Alcotest.fail "expected Did_not_finish"

(* Fleet.map on plain closures: ordering, containment, stats. *)
let test_map_ordering_and_stats () =
  let items = List.init 17 Fun.id in
  let f x = if x = 11 then failwith "boom" else x * x in
  let results, stats =
    Fleet.map_stats ~jobs:4 ~label:string_of_int f items
  in
  List.iteri
    (fun i r ->
      match r with
      | Ok v -> Alcotest.(check int) (Fmt.str "item %d in order" i) (i * i) v
      | Error (e : Fleet.error) ->
        Alcotest.(check int) "failing index" 11 e.index;
        Alcotest.(check string) "failing label" "11" e.label)
    results;
  Alcotest.(check int) "jobs" 17 stats.Fleet.jobs;
  Alcotest.(check int) "failures" 1 stats.Fleet.failures;
  Alcotest.(check int) "workers" 4 stats.Fleet.workers;
  Alcotest.(check int) "one wall time per job" 17 (Array.length stats.Fleet.job_us)

let test_map_inline_when_one_worker () =
  let self = Domain.self () in
  let results = Fleet.map ~jobs:1 (fun _ -> Domain.self ()) [ 0; 1; 2 ] in
  List.iter
    (function
      | Ok d -> Alcotest.(check bool) "ran on calling domain" true (d = self)
      | Error _ -> Alcotest.fail "inline job failed")
    results

(* Per-job obs registries merge in submission order: the merged metrics
   from a parallel run equal those from a sequential run, fleet's own
   wall-clock metrics aside. *)
let deterministic_metrics obs =
  let reg = Obs.snapshot obs in
  let wallclock n =
    String.length n >= 6 && String.sub n 0 6 = "fleet." && n <> "fleet.jobs"
    && n <> "fleet.failures"
  in
  ( List.filter (fun (n, _) -> not (wallclock n)) (Obs.Metrics.counters reg),
    List.filter_map
      (fun (h : Obs.Metrics.histogram) ->
        if wallclock h.h_name then None else Some (h.h_name, h.n, h.sum))
      (Obs.Metrics.histograms reg) )

let test_metrics_merge_deterministic () =
  let run jobs =
    let obs = Obs.create () in
    ignore (Workload.Harness.run_fleet ~obs ~jobs (specs_small ()));
    deterministic_metrics obs
  in
  let c1, h1 = run 1 and c4, h4 = run 4 in
  Alcotest.(check (list (pair string int))) "counters identical" c1 c4;
  Alcotest.(check (list (triple string int int))) "histograms identical" h1 h4

let test_fleet_metrics_recorded () =
  let obs = Obs.create () in
  ignore (Fleet.map ~obs ~jobs:2 (fun x -> x) [ 1; 2; 3 ]);
  let reg = Obs.snapshot obs in
  let counter n = List.assoc_opt n (Obs.Metrics.counters reg) in
  Alcotest.(check (option int)) "fleet.jobs" (Some 3) (counter "fleet.jobs");
  Alcotest.(check (option int)) "fleet.failures" (Some 0) (counter "fleet.failures");
  let hist =
    List.exists
      (fun (h : Obs.Metrics.histogram) -> h.h_name = "fleet.job_us" && h.n = 3)
      (Obs.Metrics.histograms reg)
  in
  Alcotest.(check bool) "fleet.job_us histogram has 3 samples" true hist

let test_empty_and_degenerate () =
  Alcotest.(check int) "empty fleet" 0 (List.length (Fleet.map (fun x -> x) []));
  (match Fleet.map ~jobs:64 (fun x -> x + 1) [ 41 ] with
  | [ Ok 42 ] -> ()
  | _ -> Alcotest.fail "single job on oversized pool");
  Alcotest.check_raises "empty guest list"
    (Invalid_argument "Harness.spec: no guests") (fun () ->
      ignore (Workload.Harness.spec ~defense:Defense.unprotected []))

let suite =
  [
    Alcotest.test_case "same results at -j 1 and -j 4" `Quick
      (Test_equiv.test_grid "COW scale grid");
    Alcotest.test_case "crashing job contained, siblings finish" `Quick
      test_failure_containment;
    Alcotest.test_case "map: submission order + stats" `Quick test_map_ordering_and_stats;
    Alcotest.test_case "map: jobs=1 runs inline" `Quick test_map_inline_when_one_worker;
    Alcotest.test_case "metrics merge deterministic across -j" `Quick
      test_metrics_merge_deterministic;
    Alcotest.test_case "fleet.* metrics recorded" `Quick test_fleet_metrics_recorded;
    Alcotest.test_case "empty list, oversized pool, empty spec" `Quick
      test_empty_and_degenerate;
  ]
