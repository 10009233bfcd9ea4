(* The fault-injection subsystem (lib/inject).

   The foundation is the null-effect property: an armed engine whose plan
   never fires leaves a run bit-identical to an unarmed one — the
   differential oracle is meaningless without it. It is the never-firing
   engine axis of the determinism harness (test_equiv.ml), which also
   checks that the seed-7 campaign renders the same at -j 1 and -j 4. Here,
   per-class unit tests pin the detection semantics (a phantom ITLB entry
   is caught at translation time, a data-copy flip never reaches the fetch
   path, the kernel contains allocator exhaustion and restarts squeezed
   syscalls), the seed-7 campaign must have zero escaped verdicts, and the
   rendered summary is pinned by a golden file (see [Golden]).
   Both read the harness's memoized campaign runs. *)

let run_to_end os = Kernel.Os.run ~fuel:2_000_000 os

(* The guest-visible event log: everything except the injection subsystem's
   own detection records. Fault-containment tests compare this against the
   fault-free twin — detection is allowed to add events, never to change
   what the guest did. *)
let guest_events os =
  List.filter_map
    (fun e ->
      match e with
      | Kernel.Event_log.Fault_detected _ -> None
      | e -> Some (Fmt.str "%a" Kernel.Event_log.pp_event e))
    (Kernel.Event_log.to_list (Kernel.Os.log os))

let scenario name =
  match Snap.Scenario.find name with
  | Some s -> s
  | None -> Alcotest.failf "unknown scenario %s" name

(* --- Plan serialization --------------------------------------------------- *)

let test_plan_roundtrip () =
  let plans =
    [
      Inject.Plan.make ();
      Inject.Plan.make ~label:"x" ~scenario:"attack-break" ~seed:123
        ~classes:[ Inject.Plan.Tlb_phantom; Inject.Plan.Pte_flip ]
        ~at_cycle:5 ~every:0 ~pid:2 ~vpn:0x8048 ~budget:9 ~fuel:777 ();
    ]
  in
  List.iter
    (fun p ->
      let encode = Snap.Codec.encode ~magic:"P" Inject.Plan.codec in
      let p' = Snap.Codec.decode ~magic:"P" Inject.Plan.codec (encode p) in
      Alcotest.(check string) "round trip" (encode p) (encode p');
      Alcotest.(check bool) "equal" true (p = p'))
    plans;
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Inject.Plan.class_name c) true
        (Inject.Plan.class_of_name (Inject.Plan.class_name c) = Some c))
    Inject.Plan.all_classes

(* --- Per-class detection semantics ----------------------------------------- *)

(* Find the split PTE backing the page the current process is executing:
   the next instruction fetch goes through it, so a fault planted there is
   exercised immediately. *)
let executing_split_pte os =
  let procs = List.filter Kernel.Proc.is_runnable (Kernel.Os.procs os) in
  List.find_map
    (fun (p : Kernel.Proc.t) ->
      let vpn = p.regs.eip / Kernel.Os.page_size os in
      match Kernel.Aspace.pte p.aspace vpn with
      | Some pte when Split_memory.Splitter.is_active_split pte -> Some (p, pte)
      | _ -> None)
    procs

(* A phantom ITLB entry routing fetches at the data copy of a protected
   page — the desync a missed invlpg would leave behind — must be rejected
   by the TLB guard at translation time, before the stale fetch retires:
   one detection on the very next instruction, and the guest's own event
   log stays identical to the fault-free twin. *)
let test_phantom_detected_before_retire () =
  let s = scenario "benign" in
  let base = s.start () in
  ignore (run_to_end base : Kernel.Os.stop_reason);
  let os = s.start () in
  ignore (Kernel.Os.run ~fuel:800 os : Kernel.Os.stop_reason);
  let eng = Inject.Engine.arm os (Inject.Plan.make ~budget:0 ()) in
  let p, pte =
    match executing_split_pte os with
    | Some x -> x
    | None -> Alcotest.fail "no active split code page mid-run"
  in
  Hw.Tlb.fill (Hw.Mmu.itlb (Kernel.Os.mmu os)) pte.vpn
    (Hw.Tlb.word ~frame:(Kernel.Pte.data_frame pte) ~writable:pte.writable ~user:true ~nx:false);
  ignore p;
  Alcotest.(check int) "no detections yet" 0 (Inject.Engine.detections eng);
  ignore (Kernel.Os.run ~fuel:1 os : Kernel.Os.stop_reason);
  Alcotest.(check int)
    "phantom caught on the very next fetch" 1
    (Inject.Engine.detections eng);
  ignore (run_to_end os : Kernel.Os.stop_reason);
  Alcotest.(check (list string))
    "guest behaviour identical to the twin" (guest_events base) (guest_events os)

(* A bit flip in the data copy of a split page must never reach the fetch
   path: the code copy's bytes are untouched and the guest completes
   exactly like the twin. Injected through the engine (trigger pinned to
   the executing page's vpn) so the ECC bookkeeping is exercised too. *)
let test_data_flip_never_in_fetch_path () =
  let s = scenario "benign" in
  let base = s.start () in
  ignore (run_to_end base : Kernel.Os.stop_reason);
  let os = s.start () in
  ignore (Kernel.Os.run ~fuel:800 os : Kernel.Os.stop_reason);
  let _, pte =
    match executing_split_pte os with
    | Some x -> x
    | None -> Alcotest.fail "no active split code page mid-run"
  in
  let code_frame = Kernel.Pte.code_frame pte in
  let phys = Kernel.Os.phys os in
  let code_before = Hw.Phys.to_string phys ~frame:code_frame in
  let eng =
    Inject.Engine.arm os
      (Inject.Plan.make
         ~classes:[ Inject.Plan.Frame_flip_data ]
         ~at_cycle:0 ~every:0 ~vpn:pte.vpn ~budget:1 ())
  in
  ignore (run_to_end os : Kernel.Os.stop_reason);
  Alcotest.(check int) "one fault injected" 1 (Inject.Engine.injected_count eng);
  (match Inject.Engine.injected eng with
  | [ i ] ->
    Alcotest.(check bool)
      (Fmt.str "targeted the data copy (%s)" i.i_detail)
      true
      (i.i_class = Inject.Plan.Frame_flip_data)
  | l -> Alcotest.failf "expected 1 injection record, got %d" (List.length l));
  Alcotest.(check string)
    "code copy bytes untouched" code_before
    (Hw.Phys.to_string phys ~frame:code_frame);
  Alcotest.(check (list string))
    "guest behaviour identical to the twin" (guest_events base) (guest_events os)

(* Allocator exhaustion: a denial that lands on a live allocation surfaces
   as Out_of_frames at the trap boundary and the kernel contains it —
   oom-kill with a Fault_detected record, never a crash of the kernel
   itself. The engine's injector fires at scheduler boundaries (the first
   quantum ends after benign's demand paging is done), so the denial is
   installed directly here to guarantee it lands on a live allocation. *)
let test_oom_containment () =
  let s = scenario "benign" in
  let os = s.start () in
  Kernel.Frame_alloc.set_deny_next (Kernel.Os.alloc os) 4;
  ignore (run_to_end os : Kernel.Os.stop_reason);
  let oom =
    Kernel.Event_log.count (Kernel.Os.log os) (function
      | Kernel.Event_log.Fault_detected { kind = "oom"; _ } -> true
      | _ -> false)
  in
  Alcotest.(check bool) "oom containment fired" true (oom > 0);
  (* every process account for: exited or killed, none left running *)
  List.iter
    (fun (p : Kernel.Proc.t) ->
      Alcotest.(check bool)
        (Fmt.str "pid %d settled" p.pid)
        true
        (Kernel.Proc.is_zombie p))
    (Kernel.Os.procs os)

(* A squeezed syscall is restarted transparently: same guest events and
   stop reason as the twin, only the cycle count shows the retries. *)
let test_syscall_squeeze_restart () =
  let v =
    Inject.run_plan
      (Inject.Plan.make ~label:"squeeze" ~scenario:"benign" ~seed:7
         ~classes:[ Inject.Plan.Syscall_transient ] ())
  in
  Alcotest.(check bool) "faults injected" true (v.v_injected > 0);
  Alcotest.(check string) "masked" "masked" (Inject.outcome_name v.v_outcome);
  Alcotest.(check bool) "event log identical" true v.v_events_match;
  Alcotest.(check bool) "retries cost cycles" true (v.v_cycles > v.v_base_cycles);
  Alcotest.(check string) "same stop reason" v.v_base_stop v.v_stop

let test_alloc_denial_mechanism () =
  let phys = Hw.Phys.create ~frames:8 () in
  let alloc = Kernel.Frame_alloc.create phys in
  Kernel.Frame_alloc.set_deny_next alloc 2;
  let denied () =
    match Kernel.Frame_alloc.alloc alloc with
    | exception Kernel.Frame_alloc.Out_of_frames -> true
    | _ -> false
  in
  Alcotest.(check bool) "first denied" true (denied ());
  Alcotest.(check bool) "second denied" true (denied ());
  Alcotest.(check bool) "third succeeds" false (denied ());
  Alcotest.(check int) "counter drained" 0 (Kernel.Frame_alloc.deny_next alloc)

(* --- The campaign ---------------------------------------------------------- *)

let test_campaign_zero_escaped () =
  let verdicts = Test_equiv.inject_seed7 ~jobs:4 in
  Alcotest.(check int) "12 plans" 12 (List.length verdicts);
  List.iter
    (fun (v : Inject.verdict) ->
      Alcotest.(check bool)
        (Fmt.str "%s fired" v.v_label)
        true (v.v_injected > 0))
    verdicts;
  Alcotest.(check (list string)) "zero escaped" []
    (List.map (fun (v : Inject.verdict) -> v.v_label) (Inject.escaped verdicts));
  let detected, masked, escaped, clean = Inject.tally verdicts in
  Alcotest.(check int) "tally covers all plans" 12 (detected + masked + escaped + clean);
  Alcotest.(check int) "no clean runs (every plan fired)" 0 clean;
  (* the TLB classes must be caught by the guard on at least one scenario *)
  List.iter
    (fun cls ->
      let hit =
        List.exists
          (fun (v : Inject.verdict) ->
            v.v_classes = Inject.Plan.class_name cls && v.v_outcome = Inject.Detected)
          verdicts
      in
      Alcotest.(check bool)
        (Fmt.str "%s detected somewhere" (Inject.Plan.class_name cls))
        true hit)
    [ Inject.Plan.Tlb_wrong_pfn; Inject.Plan.Tlb_wrong_perms; Inject.Plan.Tlb_phantom ]

(* --- Golden summary (the `simctl inject --seed 7` output) ------------------ *)

let test_golden_summary () =
  Golden.check "inject-seed7" (Inject.summary_string (Test_equiv.inject_seed7 ~jobs:1))

let suite =
  [
    Alcotest.test_case "plan serialization round trip" `Quick test_plan_roundtrip;
    Test_equiv.(generated ~name:"never-firing engine is bit-invisible" [ Inject_armed ]);
    Alcotest.test_case "phantom ITLB entry caught before retire" `Quick
      test_phantom_detected_before_retire;
    Alcotest.test_case "data-copy flip never reaches the fetch path" `Quick
      test_data_flip_never_in_fetch_path;
    Alcotest.test_case "allocator exhaustion is contained (oom-kill)" `Quick
      test_oom_containment;
    Alcotest.test_case "squeezed syscall restarts transparently" `Quick
      test_syscall_squeeze_restart;
    Alcotest.test_case "frame allocator denial mechanism" `Quick
      test_alloc_denial_mechanism;
    Alcotest.test_case "seed-7 campaign: zero escaped" `Quick test_campaign_zero_escaped;
    Alcotest.test_case "campaign summary identical across -j" `Quick
      (Test_equiv.test_grid "inject seed-7");
    Alcotest.test_case "golden summary (simctl inject --seed 7)" `Quick
      test_golden_summary;
  ]
