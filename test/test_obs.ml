(* The observability layer: JSON round-trips, the bounded trace ring, the
   metric registry and the kernel event log as a trace producer. That a
   live sink is cycle-exact zero overhead is the live-obs axis of the
   determinism harness (test_equiv.ml). *)

(* --- Json ---------------------------------------------------------------- *)

let test_json_roundtrip () =
  let module J = Obs.Json in
  let doc =
    J.Obj
      [
        ("s", J.Str "a \"quoted\"\nline\twith\\specials");
        ("i", J.Int (-42));
        ("f", J.Float 1.5);
        ("b", J.Bool true);
        ("n", J.Null);
        ("l", J.List [ J.Int 1; J.Int 2; J.Obj [ ("x", J.Str "y") ] ]);
      ]
  in
  match J.of_string (J.to_string doc) with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok parsed ->
    Alcotest.(check string) "round trip" (J.to_string doc) (J.to_string parsed)

let test_json_accessors () =
  let module J = Obs.Json in
  let doc = J.Obj [ ("a", J.Int 7); ("b", J.Str "hi") ] in
  Alcotest.(check (option int)) "member int" (Some 7) (Option.bind (J.member "a" doc) J.to_int);
  Alcotest.(check (option string)) "member str" (Some "hi") (Option.bind (J.member "b" doc) J.to_str);
  Alcotest.(check (option int)) "missing" None (Option.bind (J.member "zz" doc) J.to_int)

(* --- Trace ring ---------------------------------------------------------- *)

let ev ts name : Obs.Trace.event =
  { ts; cat = "test"; name; ph = Obs.Trace.Instant; args = [] }

let test_ring_bounded () =
  let r = Obs.Trace.create ~capacity:4 () in
  for i = 1 to 10 do
    Obs.Trace.add r (ev i (Fmt.str "e%d" i))
  done;
  Alcotest.(check int) "length capped" 4 (Obs.Trace.length r);
  Alcotest.(check int) "dropped counted" 6 (Obs.Trace.dropped r);
  (* oldest-first and only the newest survive *)
  Alcotest.(check (list string))
    "newest retained, oldest first"
    [ "e7"; "e8"; "e9"; "e10" ]
    (List.map (fun (e : Obs.Trace.event) -> e.name) (Obs.Trace.to_list r))

let test_ring_ordering () =
  let r = Obs.Trace.create ~capacity:8 () in
  List.iter (fun i -> Obs.Trace.add r (ev i (Fmt.str "e%d" i))) [ 1; 2; 3 ];
  Alcotest.(check (list int))
    "insertion order" [ 1; 2; 3 ]
    (List.map (fun (e : Obs.Trace.event) -> e.ts) (Obs.Trace.to_list r))

let test_jsonl_roundtrip () =
  let events =
    [
      { (ev 10 "walk") with cat = "hw"; args = [ ("vpn", Obs.Json.Int 5) ] };
      { (ev 20 "span") with ph = Obs.Trace.Complete 7 };
      { (ev 30 "open") with ph = Obs.Trace.Begin };
      { (ev 40 "close") with ph = Obs.Trace.End };
    ]
  in
  match Obs.Trace.of_jsonl (Obs.Trace.jsonl events) with
  | Error e -> Alcotest.failf "jsonl parse error: %s" e
  | Ok parsed ->
    Alcotest.(check int) "count" (List.length events) (List.length parsed);
    List.iter2
      (fun (a : Obs.Trace.event) (b : Obs.Trace.event) ->
        Alcotest.(check int) "ts" a.ts b.ts;
        Alcotest.(check string) "name" a.name b.name;
        Alcotest.(check string) "cat" a.cat b.cat;
        Alcotest.(check bool) "phase" true (a.ph = b.ph))
      events parsed

(* --- Metrics ------------------------------------------------------------- *)

let test_metrics_counters () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter reg "x" in
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:4 c;
  (* find-or-create: same name is the same counter *)
  Obs.Metrics.incr (Obs.Metrics.counter reg "x");
  Alcotest.(check (list (pair string int))) "counters" [ ("x", 6) ]
    (Obs.Metrics.counters reg);
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Metrics: \"x\" is not a histogram")
    (fun () -> ignore (Obs.Metrics.histogram reg "x"))

let test_metrics_histogram () =
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram reg "lat" in
  List.iter (Obs.Metrics.observe h) [ 0; 1; 3; 4; 700 ];
  Alcotest.(check int) "n" 5 h.Obs.Metrics.n;
  Alcotest.(check int) "sum" 708 h.Obs.Metrics.sum;
  Alcotest.(check int) "min" 0 h.Obs.Metrics.vmin;
  Alcotest.(check int) "max" 700 h.Obs.Metrics.vmax;
  (* buckets: <=0 | [1,2) | [2,4) | [4,8) | ... [512,1024) — bounds are
     reported as (lo, hi-exclusive) *)
  Alcotest.(check (list (triple int int int)))
    "nonzero buckets"
    [ (0, 0, 1); (1, 2, 1); (2, 4, 1); (4, 8, 1); (512, 1024, 1) ]
    (Obs.Metrics.nonzero_buckets h)

let test_metrics_labeled () =
  let reg = Obs.Metrics.create () in
  let l = Obs.Metrics.labeled reg "by_pid" in
  Obs.Metrics.incr_label l "3";
  Obs.Metrics.incr_label ~by:5 l "1";
  Obs.Metrics.incr_label l "3";
  Alcotest.(check (list (pair string int)))
    "descending by count" [ ("1", 5); ("3", 2) ] (Obs.Metrics.label_cells l)

(* --- Obs facade ---------------------------------------------------------- *)

let test_null_is_noop () =
  let o = Obs.null in
  Alcotest.(check bool) "disabled" false (Obs.enabled o);
  Obs.event o ~cat:"x" "e";
  Obs.count o "c";
  Obs.span_begin o ~key:"k" ~cat:"x" "s";
  Alcotest.(check (option int)) "span_end none" None (Obs.span_end o ~key:"k" ~cat:"x" "s");
  Alcotest.(check int) "no events" 0 (List.length (Obs.events o));
  Alcotest.(check (list (pair string int))) "no counters" [] (Obs.Metrics.counters (Obs.metrics o))

let test_spans () =
  let o = Obs.create () in
  let clock = ref 100 in
  Obs.set_clock o (fun () -> !clock);
  Obs.span_begin o ~key:"ss:1" ~cat:"split" "window";
  clock := 250;
  Alcotest.(check (option int)) "duration" (Some 150)
    (Obs.span_end o ~key:"ss:1" ~cat:"split" "window");
  Alcotest.(check (option int)) "unmatched end" None
    (Obs.span_end o ~key:"ss:1" ~cat:"split" "window")

(* --- Event log as trace producer ----------------------------------------- *)

let test_event_log_queries () =
  let log = Kernel.Event_log.create () in
  Kernel.Event_log.add log (Kernel.Event_log.Injection_detected { pid = 3; eip = 0x9000; mode = "break" });
  Kernel.Event_log.add log (Kernel.Event_log.Exec_shell { pid = 7; path = "/bin/sh" });
  Kernel.Event_log.add log (Kernel.Event_log.Note "hello");
  Alcotest.(check int) "count" 1
    (Kernel.Event_log.count log (function Kernel.Event_log.Note _ -> true | _ -> false));
  Alcotest.(check bool) "find_first" true
    (Kernel.Event_log.find_first log (function
       | Kernel.Event_log.Exec_shell { pid; _ } -> pid = 7
       | _ -> false)
    <> None);
  Alcotest.(check bool) "shell_spawned" true (Kernel.Event_log.shell_spawned log);
  Alcotest.(check (list (triple int int string))) "detections"
    [ (3, 0x9000, "break") ]
    (Kernel.Event_log.detections log)

let test_event_log_mirrors_to_trace () =
  let log = Kernel.Event_log.create () in
  let o = Obs.create () in
  Kernel.Event_log.attach_obs log o;
  Kernel.Event_log.add log (Kernel.Event_log.Exec_shell { pid = 1; path = "/bin/sh" });
  Kernel.Event_log.add log (Kernel.Event_log.Note "x");
  let names = List.map (fun (e : Obs.Trace.event) -> e.name) (Obs.events o) in
  Alcotest.(check (list string)) "tags traced" [ "exec_shell"; "note" ] names;
  Alcotest.(check int) "log list unchanged" 2 (List.length (Kernel.Event_log.to_list log))

(* --- Instrumented kernel end-to-end -------------------------------------- *)

let test_attack_populates_metrics () =
  let obs = Obs.create () in
  let o =
    Attack.Realworld.run ~defense:Defense.split_standalone ~obs Attack.Realworld.Apache_ssl
  in
  Alcotest.(check bool) "foiled" true (Attack.Runner.is_foiled o);
  let reg = Obs.snapshot obs in
  let counters = Obs.Metrics.counters reg in
  let count name = try List.assoc name counters with Not_found -> 0 in
  Alcotest.(check bool) "retired insns counted" true (count "cpu.retired" > 0);
  Alcotest.(check bool) "faults counted" true (count "mmu.faults" > 0);
  Alcotest.(check bool) "detection counted" true (count "split.detections" >= 1);
  Alcotest.(check bool) "gauges imported" true
    (List.mem_assoc "cost.cycles" (Obs.Metrics.gauges reg));
  Alcotest.(check bool) "fault latency observed" true
    (List.exists
       (fun (h : Obs.Metrics.histogram) ->
         h.h_name = "os.fault_service_cycles" && h.n > 0)
       (Obs.Metrics.histograms reg));
  Alcotest.(check bool) "trace nonempty" true (Obs.events obs <> [])

let test_trace_jsonl_file_roundtrip () =
  let obs = Obs.create () in
  ignore
    (Attack.Realworld.run ~defense:Defense.split_standalone ~obs
       Attack.Realworld.Apache_ssl);
  let file = Filename.temp_file "obs" ".jsonl" in
  Obs.write_trace obs file;
  let ic = open_in_bin file in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  Sys.remove file;
  match Obs.Trace.of_jsonl contents with
  | Error e -> Alcotest.failf "written trace does not parse: %s" e
  | Ok parsed ->
    Alcotest.(check int) "all events round trip"
      (List.length (Obs.events obs))
      (List.length parsed);
    (* timestamps come from the cycle clock; Complete spans are stamped with
       their start cycle, so the stream is not globally monotone — but every
       stamp must be a valid cycle count *)
    Alcotest.(check bool) "cycle-stamped" true
      (List.for_all (fun (e : Obs.Trace.event) -> e.ts >= 0) parsed
      && List.exists (fun (e : Obs.Trace.event) -> e.ts > 0) parsed)

(* The acceptance bar for the whole layer — a live sink never perturbs the
   simulation — is the live-obs axis of the determinism harness
   (test_equiv.ml); the last case runs it on ctxsw/split. *)
let suite =
  [
    Alcotest.test_case "json round trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json accessors" `Quick test_json_accessors;
    Alcotest.test_case "ring bounded" `Quick test_ring_bounded;
    Alcotest.test_case "ring ordering" `Quick test_ring_ordering;
    Alcotest.test_case "jsonl round trip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "metrics counters" `Quick test_metrics_counters;
    Alcotest.test_case "metrics histogram" `Quick test_metrics_histogram;
    Alcotest.test_case "metrics labeled" `Quick test_metrics_labeled;
    Alcotest.test_case "null sink is a no-op" `Quick test_null_is_noop;
    Alcotest.test_case "spans pair across callbacks" `Quick test_spans;
    Alcotest.test_case "event log queries" `Quick test_event_log_queries;
    Alcotest.test_case "event log mirrors to trace" `Quick test_event_log_mirrors_to_trace;
    Alcotest.test_case "attack populates metrics" `Quick test_attack_populates_metrics;
    Alcotest.test_case "trace file round trips" `Quick test_trace_jsonl_file_roundtrip;
    Alcotest.test_case "null sink zero overhead" `Quick
      Test_equiv.(test_cells [ golden "ctxsw/split" ] [ Obs_live ]);
  ]
