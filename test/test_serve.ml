(* lib/serve: loadgen determinism and Zipf shape (qcheck), knee-finder
   and percentile-estimator units, the zero-request guard, the sweep's
   -j invariance, and the end-to-end serving golden with a mid-serve
   replay gate (a Sleep-blocked client crosses the snapshot). The golden
   is regenerated only for an intentional behaviour change (see [Golden]). *)

module L = Serve.Loadgen

let check = Alcotest.check

(* --- smoke: one serving machine completes its offered load ---------------- *)

let test_scenario_completes () =
  let c =
    Serve.config ~defense:Defense.split_standalone ~concurrency:2 ~requests:8
      ~model:(L.Closed { think = 40_000 }) ~resp_size:1024 ()
  in
  let o = Serve.run c in
  check Alcotest.int "all offered requests completed" o.Serve.offered o.Serve.completed;
  if o.Serve.throughput <= 0.0 then Alcotest.fail "throughput must be positive";
  match o.Serve.lat.p50 with
  | None -> Alcotest.fail "latency reservoir is empty"
  | Some p50 -> if p50 <= 0 then Alcotest.failf "non-positive p50 %d" p50

(* --- loadgen properties (qcheck) ------------------------------------------ *)

let gen_model =
  QCheck.Gen.(
    oneof
      [
        map (fun think -> L.Closed { think }) (int_range 1 100_000);
        map (fun period -> L.Open { period }) (int_range 1 100_000);
      ])

let print_model = function
  | L.Closed { think } -> Fmt.str "closed(think=%d)" think
  | L.Open { period } -> Fmt.str "open(period=%d)" period

let gen_sched_params =
  QCheck.Gen.(
    map
      (fun (seed, client, requests, ws_pages, model) ->
        (seed, client, requests, ws_pages, model))
      (tup5 (int_range 0 1000) (int_range 0 64) (int_range 1 64) (int_range 1 32)
         gen_model))

let arb_sched_params =
  QCheck.make
    ~print:(fun (seed, client, requests, ws_pages, model) ->
      Fmt.str "seed=%d client=%d requests=%d ws_pages=%d %s" seed client requests
        ws_pages (print_model model))
    gen_sched_params

(* The property the serving gate rests on: a schedule is a pure function
   of its parameters — two independent generations render to the same
   bytes, land every page inside the working set, and honour the model's
   pace discipline (open-loop releases are strictly increasing). *)
let prop_schedule_deterministic =
  QCheck.Test.make ~name:"loadgen schedule is a pure function of its seed" ~count:200
    arb_sched_params (fun (seed, client, requests, ws_pages, model) ->
      let mk () = L.schedule ~ws_pages ~model ~requests ~seed ~client () in
      let a = mk () and b = mk () in
      String.equal (L.to_string a) (L.to_string b)
      && Array.length a = requests
      && Array.for_all (fun (page, _) -> page >= 0 && page < ws_pages * 4096) a
      && Array.for_all (fun (page, _) -> page mod 4096 = 0) a
      &&
      match model with
      | L.Open _ ->
        let ok = ref true in
        Array.iteri
          (fun i (_, pace) -> if i > 0 then ok := !ok && pace > snd a.(i - 1))
          a;
        !ok
      | L.Closed { think } ->
        Array.for_all (fun (_, pace) -> pace >= think / 2 && pace < think * 2) a)

(* Zipf's defining shape, by construction of the integer weight table:
   the frequency of rank r is monotone non-increasing in r. *)
let prop_zipf_monotone =
  QCheck.Test.make ~name:"zipf rank frequencies are monotone non-increasing"
    ~count:200
    (QCheck.make
       ~print:(fun (n, theta10) -> Fmt.str "n=%d theta=%.1f" n (float_of_int theta10 /. 10.))
       QCheck.Gen.(tup2 (int_range 1 64) (int_range 0 30)))
    (fun (n, theta10) ->
      let theta = float_of_int theta10 /. 10. in
      let z = L.Zipf.make ~theta n in
      let weight r = z.L.Zipf.cum.(r) - if r = 0 then 0 else z.L.Zipf.cum.(r - 1) in
      let ok = ref (L.Zipf.ranks z = n) in
      for r = 1 to n - 1 do
        ok := !ok && weight r <= weight (r - 1)
      done;
      (* and sampling can only produce in-range ranks *)
      let rng = L.Prng.make 42 in
      for _ = 1 to 100 do
        let r = L.Zipf.sample z rng in
        ok := !ok && r >= 0 && r < n
      done;
      !ok)

(* --- knee finder on synthetic curves -------------------------------------- *)

let test_knee_synthetic () =
  (* strictly rising: only the last point reaches 97% of the peak *)
  check Alcotest.int "monotone rising" 8
    (Serve.Sweep.knee [ (1, 10.); (2, 20.); (4, 40.); (8, 80.) ]);
  (* plateau: the first point inside the band wins, not the peak itself *)
  check Alcotest.int "plateau" 2
    (Serve.Sweep.knee [ (1, 50.); (2, 98.); (4, 100.); (8, 100.) ]);
  (* noisy peak: a later dip must not drag the knee past the first
     in-band concurrency *)
  check Alcotest.int "noisy peak" 4
    (Serve.Sweep.knee [ (1, 10.); (2, 90.); (4, 100.); (8, 95.) ]);
  (* a single point is its own knee *)
  check Alcotest.int "single point" 7 (Serve.Sweep.knee [ (7, 42.) ]);
  (* threshold is honoured: at 0.5, 2 is already inside the band *)
  check Alcotest.int "custom threshold" 2
    (Serve.Sweep.knee ~threshold:0.5 [ (1, 10.); (2, 60.); (4, 100.) ]);
  match Serve.Sweep.knee [] with
  | exception Invalid_argument _ -> ()
  | k -> Alcotest.failf "empty curve produced knee %d" k

(* --- percentile estimator vs exact sorted quantiles ----------------------- *)

(* Within capacity the reservoir holds every sample, so the estimator
   must agree exactly with the nearest-rank quantile of the sorted data. *)
let exact_nearest_rank sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let prop_percentile_exact =
  QCheck.Test.make ~name:"percentiles match exact sorted quantiles within capacity"
    ~count:300
    QCheck.(list_of_size (Gen.int_range 1 500) (int_range 0 1_000_000))
    (fun samples ->
      let lat = Serve.Latency.create () in
      List.iter (Serve.Latency.record lat) samples;
      let sorted = Array.of_list (List.sort compare samples) in
      List.for_all
        (fun p -> Serve.Latency.percentile lat p = Some (exact_nearest_rank sorted p))
        [ 50.0; 90.0; 95.0; 99.0; 99.9; 100.0 ])

(* --- zero-request guard ---------------------------------------------------- *)

let test_zero_request_guard () =
  let lat = Serve.Latency.create () in
  let s = Serve.Latency.summary lat in
  check Alcotest.int "no requests" 0 s.Serve.Latency.requests;
  List.iter
    (fun (name, v) ->
      if v <> None then Alcotest.failf "empty reservoir yielded a %s" name)
    [
      ("p50", s.p50); ("p95", s.p95); ("p99", s.p99); ("p999", s.p999);
      ("max", s.lat_max);
    ];
  if Serve.Latency.mean lat <> None then Alcotest.fail "empty reservoir yielded a mean";
  (* the report convention: absent percentiles render "-", never NaN *)
  check Alcotest.string "renders dash" "-" (Serve.Sweep.cycles_opt None);
  check Alcotest.string "present renders digits" "123"
    (Serve.Sweep.cycles_opt (Some 123))

(* --- golden: the fixed split-memory knee table ----------------------------- *)

let golden_sweep () =
  Serve.Sweep.run ~jobs:2
    ~defenses:[ Defense.split_standalone ]
    ~concurrencies:[ 1; 2; 4 ] ~reps:2 ~requests:6
    ~model:(L.Closed { think = 30_000 }) ~resp_size:1024 ()

let test_golden_knee () = Golden.check "serve-knee" (Serve.Sweep.render (golden_sweep ()))

(* --- replay gate: snapshot/restore mid-serve is bit-exact ------------------ *)

(* The serving machine is the only workload whose guests block in
   [Proc.Sleep]: checkpoint while a client is mid-think and the sleep
   deadline must survive the codec round-trip, or the resumed run drifts.
   Run the replay gate, then prove a sleeper was live at its checkpoint. *)
let serve_spec () =
  Serve.spec
    (Serve.config ~defense:Defense.split_standalone ~concurrency:2 ~requests:6
       ~model:(L.Closed { think = 40_000 }) ~resp_size:1024 ())

let test_replay_mid_serve () =
  let build () = Workload.Harness.build (serve_spec ()) in
  let report = Snap.Replay.check ~at:2_000 build in
  if not (Snap.Replay.ok report) then
    Alcotest.failf "mid-serve replay diverged: %a" Snap.Replay.pp report;
  let os = build () in
  Snap.Snapshot.restore os (Option.get report.checkpoint);
  let sleeping =
    List.exists
      (fun (p : Kernel.Proc.t) ->
        match p.state with Kernel.Proc.Blocked (Kernel.Proc.Sleep _) -> true | _ -> false)
      (Kernel.Os.procs os)
  in
  if not sleeping then
    Alcotest.fail "no client was sleeping at the checkpoint; gate is vacuous"

let suite =
  [
    Alcotest.test_case "scenario completes offered load" `Quick test_scenario_completes;
    QCheck_alcotest.to_alcotest prop_schedule_deterministic;
    QCheck_alcotest.to_alcotest prop_zipf_monotone;
    Alcotest.test_case "knee finder on synthetic curves" `Quick test_knee_synthetic;
    QCheck_alcotest.to_alcotest prop_percentile_exact;
    Alcotest.test_case "zero requests render dashes, not NaN" `Quick
      test_zero_request_guard;
    Alcotest.test_case "sweep renders identically at -j1 and -j4" `Slow
      (Test_equiv.test_grid "quick serve sweep");
    Alcotest.test_case "golden serving knee table" `Quick test_golden_knee;
    Alcotest.test_case "replay gate across a sleeping client" `Quick
      test_replay_mid_serve;
  ]
