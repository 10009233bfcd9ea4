(* Workloads: every guest terminates under every defense, protection costs
   cycles, and the figure trends hold on scaled-down instances. *)

let defenses = [ Defense.unprotected; Defense.split_standalone ]

let check_terminates name run =
  List.iter
    (fun d ->
      let r = run d in
      Alcotest.(check bool)
        (Fmt.str "%s under %s has cycles" name (Defense.name d))
        true
        (r.Workload.Harness.cycles > 0))
    defenses

let run_guest d image = Workload.Harness.run (Workload.Harness.single ~defense:d image)

let test_all_guests_terminate () =
  check_terminates "apache" (fun d ->
      Workload.Figures.run_apache ~defense:d ~size:2048 ~requests:3 ());
  check_terminates "gzip" (fun d -> Workload.Figures.run_gzip ~defense:d ~size:8192 ());
  check_terminates "ctxsw" (fun d -> Workload.Figures.run_ctxsw ~defense:d ~iters:10 ());
  check_terminates "nbench" (fun d ->
      run_guest d (Workload.Guests.nbench ~iters:3 ()));
  check_terminates "syscall" (fun d ->
      run_guest d (Workload.Guests.syscall_bench ~iters:50 ()));
  check_terminates "pipe" (fun d ->
      run_guest d (Workload.Guests.pipe_throughput ~iters:20 ()));
  check_terminates "spawn" (fun d ->
      run_guest d (Workload.Guests.spawn_bench ~iters:3 ()));
  check_terminates "fscopy" (fun d ->
      run_guest d (Workload.Guests.fscopy ~passes:1 ~size:4096 ()))

let test_protection_costs_cycles () =
  let base = Workload.Figures.run_ctxsw ~defense:Defense.unprotected ~iters:20 () in
  let prot = Workload.Figures.run_ctxsw ~defense:Defense.split_standalone ~iters:20 () in
  Alcotest.(check bool) "protected is slower" true (prot.cycles > base.cycles);
  Alcotest.(check bool) "same instructions retired" true (prot.insns = base.insns);
  Alcotest.(check bool) "split faults occurred" true (prot.split_faults > 0);
  Alcotest.(check bool) "single steps occurred" true (prot.single_steps > 0)

let test_normalized_in_range () =
  let v = Workload.Figures.ctxsw_normalized ~defense:Defense.split_standalone ~iters:30 () in
  Alcotest.(check bool) "in (0, 1.02]" true (v > 0.0 && v <= 1.02)

let test_apache_size_trend () =
  (* larger served pages dilute the per-request protection overhead *)
  let n size =
    Workload.Figures.apache_normalized ~defense:Defense.split_standalone ~size ~requests:8 ()
  in
  let small = n 1024 and big = n 32768 in
  Alcotest.(check bool) (Fmt.str "1KB (%.2f) slower than 32KB (%.2f)" small big) true
    (small < big)

let test_fraction_trend () =
  (* more pages split => slower; 0% is within noise of full speed *)
  let v pct =
    Workload.Figures.ctxsw_normalized ~defense:(Defense.split_fraction pct) ~iters:60 ()
  in
  let v0 = v 0 and v50 = v 50 and v100 = v 100 in
  Alcotest.(check bool) (Fmt.str "0%% near full speed (%.2f)" v0) true (v0 > 0.97);
  Alcotest.(check bool) (Fmt.str "monotone %.2f >= %.2f >= %.2f" v0 v50 v100) true
    (v0 >= v50 -. 0.02 && v50 >= v100 -. 0.02)

let test_memory_overhead_trend () =
  let unprot, eager, demand = Workload.Figures.memory_overhead () in
  Alcotest.(check bool) (Fmt.str "eager (%d) ~ 2x unprotected (%d)" eager unprot) true
    (eager = 2 * unprot);
  Alcotest.(check bool) (Fmt.str "demand (%d) < eager (%d)" demand eager) true (demand < eager)

let test_itlb_method_ablation () =
  let single_step, ret_gadget = Workload.Figures.itlb_method_ablation ~iters:30 () in
  Alcotest.(check bool) "ret-gadget variant is slower" true (ret_gadget > single_step)

let test_geomean () =
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Workload.Harness.geomean [ 1.0; 4.0 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Harness.geomean: empty") (fun () ->
      ignore (Workload.Harness.geomean []))

let test_fuel_exhaustion_detected () =
  match
    Workload.Harness.run
      (Workload.Harness.single ~fuel:10 ~defense:Defense.unprotected
         (Workload.Guests.nbench ~iters:1000 ()))
  with
  | exception Workload.Harness.Did_not_finish _ -> ()
  | _ -> Alcotest.fail "expected Did_not_finish"

(* Zero-fill on demand: a freshly built fig 7 machine backs only the
   frames its image loader wrote (none when pages load on demand, every one
   of them allocated), and after its run at most the frames it held at its
   peak on top of those. The rest of its 16k frames stay on the shared
   zero page. *)
let test_fig7_backs_written_frames () =
  let eager (spec : Workload.Harness.spec) =
    { spec with guests = List.map (fun g -> { g with Workload.Harness.eager = true }) spec.guests }
  in
  let ctxsw =
    Workload.Figures.ctxsw_spec ~defense:Defense.split_standalone
      ~iters:Workload.Figures.ctxsw_iters
  and apache =
    Workload.Figures.apache_spec ~defense:Defense.split_standalone ~size:1024
      ~requests:Workload.Figures.apache_requests
  in
  List.iter
    (fun (name, (spec : Workload.Harness.spec)) ->
      let os = Workload.Harness.build spec in
      let phys = Kernel.Os.phys os and alloc = Kernel.Os.alloc os in
      let loaded = Hw.Phys.materialized phys and in_use = Kernel.Frame_alloc.in_use alloc in
      let is_eager = List.exists (fun (g : Workload.Harness.guest) -> g.eager) spec.guests in
      Alcotest.(check bool)
        (Fmt.str "%s: loader wrote %d frames, %d allocated" name loaded in_use)
        true
        (loaded <= in_use && (loaded > 0) = is_eager);
      ignore (Kernel.Os.run ~fuel:spec.fuel os);
      let backed = Hw.Phys.materialized phys and peak = Kernel.Frame_alloc.peak_in_use alloc in
      Alcotest.(check bool)
        (Fmt.str "%s: %d frames backed, peak %d + loaded %d" name backed peak loaded)
        true
        (backed > loaded && backed <= peak + loaded))
    [
      ("ctxsw", ctxsw);
      ("apache1k", apache);
      ("eager ctxsw", eager ctxsw);
      ("eager apache1k", eager apache);
    ]

let suite =
  [
    Alcotest.test_case "all guests terminate" `Quick test_all_guests_terminate;
    Alcotest.test_case "protection costs cycles, not insns" `Quick test_protection_costs_cycles;
    Alcotest.test_case "normalized ratio in range" `Quick test_normalized_in_range;
    Alcotest.test_case "apache: bigger pages, lower overhead" `Quick test_apache_size_trend;
    Alcotest.test_case "fraction split monotone" `Quick test_fraction_trend;
    Alcotest.test_case "memory overhead: eager doubles, demand doesn't" `Quick
      test_memory_overhead_trend;
    Alcotest.test_case "itlb method ablation ordering" `Quick test_itlb_method_ablation;
    Alcotest.test_case "geometric mean" `Quick test_geomean;
    Alcotest.test_case "fuel exhaustion raises" `Quick test_fuel_exhaustion_detected;
    Alcotest.test_case "fig 7 backs only written frames" `Quick test_fig7_backs_written_frames;
  ]
