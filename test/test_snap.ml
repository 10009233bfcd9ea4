(* The snapshot subsystem: codec round-trips, whole-machine
   checkpoint/restore with bit-exact replay across scenarios, run-to-run
   determinism, the auto-checkpoint ring, forensic capture, and the
   file format. *)

(* Run to the end and render the machine (the determinism harness's one
   observation). *)
let run_to_end os = Test_equiv.observe os (Kernel.Os.run ~fuel:Test_equiv.fuel os)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let scenario name =
  match Snap.Scenario.find name with
  | Some s -> s
  | None -> Alcotest.failf "unknown scenario %s" name

(* --- Codec --------------------------------------------------------------- *)

let test_codec_roundtrip () =
  let module W = Snap.Codec.W in
  let module R = Snap.Codec.R in
  let b = W.create () in
  W.raw b "HDR";
  List.iter (W.int b) [ 0; 1; -1; 42; -123456789; max_int / 2; -(max_int / 2) ];
  W.str b "hello\000world";
  W.str b "";
  W.bool b true;
  W.bool b false;
  W.opt W.int b None;
  W.opt W.int b (Some (-7));
  W.list W.str b [ "a"; "bb"; "" ];
  W.int_array b [| 3; -4; 5 |];
  let r = R.of_string (W.contents b) in
  R.expect r "HDR";
  List.iter
    (fun v -> Alcotest.(check int) "int" v (R.int r))
    [ 0; 1; -1; 42; -123456789; max_int / 2; -(max_int / 2) ];
  Alcotest.(check string) "str" "hello\000world" (R.str r);
  Alcotest.(check string) "empty str" "" (R.str r);
  Alcotest.(check bool) "true" true (R.bool r);
  Alcotest.(check bool) "false" false (R.bool r);
  Alcotest.(check (option int)) "none" None (R.opt R.int r);
  Alcotest.(check (option int)) "some" (Some (-7)) (R.opt R.int r);
  Alcotest.(check (list string)) "list" [ "a"; "bb"; "" ] (R.list R.str r);
  Alcotest.(check (array int)) "array" [| 3; -4; 5 |] (R.int_array r);
  Alcotest.(check bool) "at end" true (R.at_end r)

let test_codec_corrupt () =
  (match Snap.Snapshot.decode "not a snapshot" with
  | exception Snap.Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "garbage accepted");
  let s = scenario "benign" in
  let os = s.start () in
  let good = Snap.Snapshot.encode (Snap.Snapshot.checkpoint os) in
  let truncated = String.sub good 0 (String.length good / 2) in
  match Snap.Snapshot.decode truncated with
  | exception Snap.Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncated snapshot accepted"

(* --- Round-trip replay across scenarios ---------------------------------- *)

(* The ISSUE acceptance criterion: restore (checkpoint m) must produce an
   identical subsequent event log and cycle count, for a benign workload, a
   Break-mode attack and a Forensics-mode attack (plus Observe). *)
let test_roundtrip name () =
  let s = scenario name in
  let os = s.start () in
  let report, snap = Snap.Replay.check os in
  Alcotest.(check bool)
    (Fmt.str "replay identical (%a)" Snap.Replay.pp report)
    true (Snap.Replay.ok report);
  Alcotest.(check bool)
    "checkpoint taken mid-run" true
    (Snap.Snapshot.cycle snap > 0 && Snap.Snapshot.cycle snap < report.ref_cycles)

(* Restoring into a *fresh* machine (not the one that made the snapshot)
   must behave identically too — that is what `simctl restore` does. *)
let test_restore_into_fresh_machine () =
  let s = scenario "attack-break" in
  let os1 = s.start () in
  ignore (Kernel.Os.run ~fuel:1500 os1);
  let snap = Snap.Snapshot.checkpoint os1 in
  let ref_final = run_to_end os1 in
  let os2 = s.start () in
  Snap.Snapshot.restore os2 (Snap.Snapshot.decode (Snap.Snapshot.encode snap));
  Alcotest.(check string) "final state matches" ref_final (run_to_end os2)

(* Canonical serialization: checkpointing a restored machine re-encodes to
   the exact same bytes — there is no hidden state the format misses. *)
let test_canonical_reencode () =
  let s = scenario "attack-forensics" in
  let os = s.start () in
  ignore (Kernel.Os.run ~fuel:1500 os);
  let e1 = Snap.Snapshot.encode (Snap.Snapshot.checkpoint os) in
  let os2 = s.start () in
  Snap.Snapshot.restore os2 (Snap.Snapshot.decode e1);
  let e2 = Snap.Snapshot.encode (Snap.Snapshot.checkpoint os2) in
  Alcotest.(check int) "same size" (String.length e1) (String.length e2);
  Alcotest.(check bool) "bit-identical re-encode" true (String.equal e1 e2)

(* --- Determinism regression (satellite) ---------------------------------- *)

(* Two from-scratch runs of the same scenario: identical cycles, event
   logs, and metrics snapshots. Guards replay correctness and any future
   perf PR against nondeterminism creeping into the simulator. *)
let test_run_to_run_determinism name () =
  let once () =
    let obs = Obs.create () in
    let s = scenario name in
    let os = s.start ~obs () in
    let final = run_to_end os in
    let metrics =
      Obs.Json.to_string (Obs.Metrics.to_json (Obs.snapshot obs))
    in
    (final, metrics)
  in
  let (f1, m1) = once () in
  let (f2, m2) = once () in
  Alcotest.(check string) "machine state" f1 f2;
  Alcotest.(check string) "metrics snapshots" m1 m2

(* --- Sparse frames ------------------------------------------------------- *)

let test_sparse_skip () =
  let s = scenario "benign" in
  let os = s.start () in
  ignore (Kernel.Os.run ~fuel:1500 os);
  let snap = Snap.Snapshot.checkpoint os in
  let written = Snap.Snapshot.frames_written snap in
  let skipped = Snap.Snapshot.frames_sparse_skipped snap in
  Alcotest.(check int)
    "written + skipped = total" (Snap.Snapshot.frame_count snap) (written + skipped);
  Alcotest.(check bool) "some frames written" true (written > 0);
  Alcotest.(check bool)
    (Fmt.str "sparse dominates (%d written, %d skipped)" written skipped)
    true
    (skipped > written)

(* --- Incompatible restore ------------------------------------------------ *)

let test_incompatible_restore () =
  let s = scenario "benign" in
  let os = s.start () in
  let snap = Snap.Snapshot.checkpoint os in
  let small =
    Kernel.Os.create ~frames:64
      ~protection:(Defense.to_protection s.defense)
      ()
  in
  (match Snap.Snapshot.restore small snap with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "frame-count mismatch accepted");
  let unprot =
    Kernel.Os.create ~protection:(Defense.to_protection Defense.unprotected) ()
  in
  match Snap.Snapshot.restore unprot snap with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "protection mismatch accepted"

(* --- Auto-checkpoint ring ------------------------------------------------ *)

let test_ring () =
  let s = scenario "benign" in
  let os = s.start () in
  let ring = Snap.Ring.install ~every_cycles:1500 ~keep:3 os in
  let final = run_to_end os in
  let snaps = Snap.Ring.snapshots ring in
  Alcotest.(check bool)
    (Fmt.str "several taken (%d)" (Snap.Ring.taken ring))
    true
    (Snap.Ring.taken ring >= 3);
  Alcotest.(check bool) "bounded" true (List.length snaps <= 3);
  Alcotest.(check int) "evicted = taken - kept"
    (Snap.Ring.taken ring - List.length snaps)
    (Snap.Ring.evicted ring);
  (* ascending capture cycles, oldest first *)
  let cycles = List.map Snap.Snapshot.cycle snaps in
  Alcotest.(check (list int)) "oldest first" (List.sort compare cycles) cycles;
  Snap.Ring.uninstall ring;
  (* warm-start from the newest retained snapshot reaches the identical end
     state *)
  match Snap.Ring.latest ring with
  | None -> Alcotest.fail "no snapshot retained"
  | Some snap ->
    let os2 = s.start () in
    Snap.Snapshot.restore os2 snap;
    Alcotest.(check string) "warm start converges" final (run_to_end os2)

(* --- Forensic capture ---------------------------------------------------- *)

(* The ISSUE acceptance criterion: the payload diff's extracted bytes equal
   the injected shellcode, captured at the detection instant. *)
let test_forensic_capture () =
  let s = scenario "attack-break" in
  let os = s.start () in
  let captures = Snap.Forensics.arm os in
  ignore (run_to_end os);
  match !captures with
  | [] -> Alcotest.fail "no capture despite detection"
  | c :: _ ->
    Alcotest.(check int) "trigger eip = landing address" Snap.Scenario.payload_landing
      c.c_trigger.t_eip;
    Alcotest.(check string) "extracted bytes = injected shellcode"
      Snap.Scenario.injected_payload c.c_payload;
    Alcotest.(check bool) "diff present" true (c.c_diff <> None);
    (* the snapshot froze the machine with the detection in its log *)
    let events = ref [] in
    let os2 = s.start () in
    Snap.Snapshot.restore os2 c.c_snapshot;
    List.iter
      (fun e -> events := Fmt.str "%a" Kernel.Event_log.pp_event e :: !events)
      (Kernel.Event_log.to_list (Kernel.Os.log os2));
    Alcotest.(check bool) "detection event in snapshot" true
      (List.exists (contains ~affix:"code injection detected") !events)

let test_forensic_artifacts () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "snap-test-forensics" in
  let s = scenario "attack-forensics" in
  let os = s.start () in
  let captures = Snap.Forensics.arm ~dir os in
  ignore (run_to_end os);
  Alcotest.(check int) "one capture" 1 (List.length !captures);
  let file name = Filename.concat dir name in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " written") true (Sys.file_exists (file name)))
    [
      "capture-0.snap";
      "capture-0.snap.manifest.json";
      "capture-0.payload.bin";
      "capture-0.diff.json";
    ];
  let payload =
    In_channel.with_open_bin (file "capture-0.payload.bin") In_channel.input_all
  in
  Alcotest.(check string) "payload file = injected shellcode"
    Snap.Scenario.injected_payload payload;
  (* the manifest records the trigger *)
  let manifest =
    In_channel.with_open_text (file "capture-0.snap.manifest.json") In_channel.input_all
  in
  match Obs.Json.of_string (String.trim manifest) with
  | Error e -> Alcotest.failf "manifest does not parse: %s" e
  | Ok j ->
    Alcotest.(check bool) "manifest has trigger" true
      (match Obs.Json.member "trigger" j with
      | Some (Obs.Json.Obj _) -> true
      | _ -> false)

(* --- Files, manifest, obs metrics ---------------------------------------- *)

let test_save_load () =
  let file = Filename.temp_file "snap-test" ".snap" in
  let s = scenario "attack-observe" in
  let os = s.start () in
  ignore (Kernel.Os.run ~fuel:1500 os);
  let snap = Snap.Snapshot.checkpoint ~meta:[ ("scenario", "attack-observe") ] os in
  let bytes = Snap.Snapshot.save ~file snap in
  Alcotest.(check bool) "nonempty" true (bytes > 0);
  let loaded = Snap.Snapshot.load file in
  Alcotest.(check string) "encode(load) = encode(saved)"
    (Snap.Snapshot.encode snap) (Snap.Snapshot.encode loaded);
  Alcotest.(check (option string)) "meta survives" (Some "attack-observe")
    (Snap.Snapshot.find_meta loaded "scenario");
  let manifest =
    In_channel.with_open_text (file ^ ".manifest.json") In_channel.input_all
  in
  (match Obs.Json.of_string (String.trim manifest) with
  | Error e -> Alcotest.failf "manifest does not parse: %s" e
  | Ok j ->
    Alcotest.(check (option int)) "manifest bytes field" (Some bytes)
      (Option.bind (Obs.Json.member "bytes" j) Obs.Json.to_int));
  Sys.remove file;
  Sys.remove (file ^ ".manifest.json")

let test_obs_metrics () =
  let obs = Obs.create () in
  let s = scenario "benign" in
  let os = s.start ~obs () in
  ignore (Kernel.Os.run ~fuel:1500 os);
  let snap = Snap.Snapshot.checkpoint os in
  Snap.Snapshot.restore os snap;
  let file = Filename.temp_file "snap-test-obs" ".snap" in
  let bytes = Snap.Snapshot.save ~obs ~file snap in
  Sys.remove file;
  Sys.remove (file ^ ".manifest.json");
  let counters = Obs.Metrics.counters (Obs.metrics obs) in
  let counter name = List.assoc_opt name counters in
  Alcotest.(check (option int)) "snap.checkpoints" (Some 1) (counter "snap.checkpoints");
  Alcotest.(check (option int)) "snap.restores" (Some 1) (counter "snap.restores");
  Alcotest.(check (option int)) "snap.bytes_written" (Some bytes)
    (counter "snap.bytes_written");
  Alcotest.(check bool) "sparse skip counted" true
    (match counter "snap.frames_sparse_skipped" with Some n -> n > 0 | None -> false);
  let histo_names =
    List.map (fun (h : Obs.Metrics.histogram) -> h.h_name)
      (Obs.Metrics.histograms (Obs.metrics obs))
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered") true (List.mem n histo_names))
    [ "snap.checkpoint_us"; "snap.restore_us" ]

(* --- Injector state (lib/inject) ------------------------------------------ *)

(* An interrupted campaign run resumes to the same verdict: checkpoint a
   machine mid-plan (the plan and the engine's volatile state — PRNG
   cursor, budget spent, pending faults — ride in snapshot metadata),
   restore into a fresh machine, rearm, finish. Event log, cost counters
   and the engine's full exported state must match the uninterrupted
   reference run bit-for-bit. *)
let test_inject_rearm () =
  let s = scenario "benign" in
  let plan =
    Inject.Plan.make ~scenario:"benign" ~seed:7 ~at_cycle:500 ~every:400 ~budget:6 ()
  in
  (* the reference: interrupted at the same point, then simply continued —
     the replay-gate comparison (an uninterrupted run would place its
     scheduler boundaries, and hence injections, at different cycles) *)
  let os1 = s.start () in
  let eng1 = Inject.Engine.arm os1 plan in
  ignore (Kernel.Os.run ~fuel:900 os1);
  Alcotest.(check bool)
    "checkpoint lands mid-plan" true
    (Inject.Engine.injected_count eng1 > 0
    && Inject.Engine.injected_count eng1 < plan.budget);
  let snap = Inject.checkpoint os1 eng1 in
  let mid_count = Inject.Engine.injected_count eng1 in
  let final1 = run_to_end os1 in
  Alcotest.(check bool)
    "reference keeps injecting after the checkpoint" true
    (Inject.Engine.injected_count eng1 > mid_count);
  let os2 = s.start () in
  Snap.Snapshot.restore os2 (Snap.Snapshot.decode (Snap.Snapshot.encode snap));
  let eng2 = Inject.rearm os2 snap in
  Alcotest.(check int) "journal restored" mid_count (Inject.Engine.injected_count eng2);
  Alcotest.(check string) "machine state matches" final1 (run_to_end os2);
  Alcotest.(check string)
    "engine state converges" (Inject.Engine.export eng1) (Inject.Engine.export eng2)

let test_inject_rearm_requires_meta () =
  let s = scenario "benign" in
  let os = s.start () in
  ignore (Kernel.Os.run ~fuel:900 os);
  let snap = Snap.Snapshot.checkpoint os in
  match Inject.rearm os snap with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "rearm accepted a snapshot without injector state"

let suite =
  [
    Alcotest.test_case "codec round trip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec rejects corrupt input" `Quick test_codec_corrupt;
    Alcotest.test_case "round trip: benign" `Quick (test_roundtrip "benign");
    Alcotest.test_case "round trip: attack-break" `Quick (test_roundtrip "attack-break");
    Alcotest.test_case "round trip: attack-forensics" `Quick
      (test_roundtrip "attack-forensics");
    Alcotest.test_case "round trip: attack-observe" `Quick
      (test_roundtrip "attack-observe");
    Alcotest.test_case "restore into fresh machine" `Quick test_restore_into_fresh_machine;
    Alcotest.test_case "canonical re-encode" `Quick test_canonical_reencode;
    Alcotest.test_case "determinism: benign" `Quick (test_run_to_run_determinism "benign");
    Alcotest.test_case "determinism: attack-observe" `Quick
      (test_run_to_run_determinism "attack-observe");
    Alcotest.test_case "sparse frame skipping" `Quick test_sparse_skip;
    Alcotest.test_case "incompatible restore rejected" `Quick test_incompatible_restore;
    Alcotest.test_case "auto-checkpoint ring" `Quick test_ring;
    Alcotest.test_case "forensic capture extracts payload" `Quick test_forensic_capture;
    Alcotest.test_case "forensic artifacts on disk" `Quick test_forensic_artifacts;
    Alcotest.test_case "save/load with manifest" `Quick test_save_load;
    Alcotest.test_case "obs metrics" `Quick test_obs_metrics;
    Alcotest.test_case "injector state round trip" `Quick test_inject_rearm;
    Alcotest.test_case "rearm rejects plain snapshots" `Quick
      test_inject_rearm_requires_meta;
  ]
