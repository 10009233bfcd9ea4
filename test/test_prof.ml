(* The address-sampling profiler (lib/prof).

   Sampling is an observer: that an attached profiler leaves every run
   bit-identical, and that the fleet-fanned policy sweep renders the same
   at -j 1 and -j 4, are cells of the determinism harness (test_equiv.ml),
   run here by the first and fourth cases. Besides those: the sampler's
   snapshot state round-trips exactly (including future decimation
   decisions), a checkpoint/restore/rearm replay renders byte-identical
   reports, the LRU TLB keeps recently-touched entries that FIFO evicts,
   and zero-access hit rates render as "-" rather than NaN. *)

(* --- Sampler state round-trip --------------------------------------------- *)

(* Fill past capacity so wrap/dropped state is exercised, then check the
   clone replays both the ring contents and the future decimation
   decisions exactly. *)
let test_sampler_roundtrip () =
  let s = Prof.Sampler.create ~capacity:8 ~rate:3 () in
  for i = 0 to 99 do
    Prof.Sampler.set_pid s (1 + (i mod 3));
    if Prof.Sampler.tick s then
      Prof.Sampler.record s ~cycle:(i * 10) ~vpn:(0x100 + i)
        ~access:(if i mod 2 = 0 then Hw.Mmu.Read else Hw.Mmu.Fetch)
        ~tlb_hit:(i mod 5 <> 0) ~split:(i mod 7 = 0)
  done;
  let s' =
    Snap.Codec.(decode ~magic:"S" Prof.Sampler.codec (encode ~magic:"S" Prof.Sampler.codec s))
  in
  Alcotest.(check int) "rate" (Prof.Sampler.rate s) (Prof.Sampler.rate s');
  Alcotest.(check int) "length" (Prof.Sampler.length s) (Prof.Sampler.length s');
  Alcotest.(check int) "dropped" (Prof.Sampler.dropped s) (Prof.Sampler.dropped s');
  Alcotest.(check int) "seen" (Prof.Sampler.seen s) (Prof.Sampler.seen s');
  Alcotest.(check int) "taken" (Prof.Sampler.taken s) (Prof.Sampler.taken s');
  Alcotest.(check int) "pid" (Prof.Sampler.pid s) (Prof.Sampler.pid s');
  Alcotest.(check bool) "samples" true (Prof.Sampler.samples s = Prof.Sampler.samples s');
  for _ = 1 to 10 do
    Alcotest.(check bool) "tick parity" (Prof.Sampler.tick s) (Prof.Sampler.tick s')
  done;
  Alcotest.check_raises "corrupt" (Snap.Codec.Corrupt "expected \"S\" at byte 0")
    (fun () -> ignore (Snap.Codec.decode ~magic:"S" Prof.Sampler.codec "" : Prof.Sampler.t))

(* --- Snapshot replay ------------------------------------------------------- *)

(* [Snap.Replay.check] with the profiler riding the checkpoint (sampler
   state in snapshot metadata, rearmed on the restored machine): the
   machine observations and the sample streams rendered from them must
   match byte-for-byte. *)
let profile_report prof =
  let samples = Prof.samples prof in
  Prof.Analysis.summary_line samples (Prof.sampler prof)
  ^ Prof.Analysis.render_heatmap samples
  ^ Prof.Analysis.render_working_set samples
  ^ Prof.Analysis.render_persistence samples

let test_replay_identical () =
  let spec =
    Workload.Figures.ctxsw_spec ~defense:Defense.split_standalone ~iters:40
  in
  let ride os snap =
    let prof =
      match snap with None -> Prof.attach ~rate:16 os | Some s -> Option.get (Prof.rearm os s)
    in
    { Snap.Replay.snapshot = (fun () -> Prof.checkpoint prof); show = (fun () -> profile_report prof) }
  in
  let report =
    Snap.Replay.check ~at:30_000 ~fuel:Test_equiv.fuel ~ride (fun () ->
        Workload.Harness.build spec)
  in
  if not (Snap.Replay.ok report) then Alcotest.failf "%a" Snap.Replay.pp report

(* A hostile prof.state declaring a 2^31-1 slot ring (its second field)
   is rejected before the ring is allocated, and leaves the machine
   without profiler hooks. *)
let test_rearm_rejects_huge_ring () =
  let spec = Workload.Figures.ctxsw_spec ~defense:Defense.split_standalone ~iters:4 in
  let os = Workload.Harness.build spec in
  let blob =
    Option.get (Snap.Snapshot.find_meta (Prof.checkpoint (Prof.attach os)) "prof.state")
  in
  (* after the 8-byte magic and the rate, zigzag-encoded *)
  let bytes = Bytes.of_string blob in
  Bytes.set_int64_le bytes 16 (Int64.of_int (2 * ((1 lsl 31) - 1)));
  let os' = Workload.Harness.build spec in
  let snap =
    Snap.Snapshot.checkpoint ~meta:[ ("prof.state", Bytes.to_string bytes) ] os'
  in
  let before = Gc.allocated_bytes () in
  (match Prof.rearm os' snap with
  | exception Snap.Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "rearm accepted a 2^31-1 slot ring");
  Alcotest.(check bool) "no ring allocated" true (Gc.allocated_bytes () -. before < 1e6);
  Alcotest.(check bool) "no sample hook" true ((Kernel.Os.env os').sample = None);
  Alcotest.(check bool) "no switch hook" true ((Kernel.Os.probe os').switch = None)

(* --- TLB replacement policy ------------------------------------------------ *)

let fill t vpn frame = Hw.Tlb.fill t vpn (Hw.Tlb.word ~frame ~writable:true ~user:true ~nx:false)
let resident t vpn = Hw.Tlb.peek t vpn >= 0

let test_lru_keeps_touched () =
  let lru = Hw.Tlb.create ~policy:Hw.Tlb.Lru ~name:"t" ~capacity:2 () in
  fill lru 1 10;
  fill lru 2 20;
  ignore (Hw.Tlb.find lru 1 : int);
  fill lru 3 30;
  Alcotest.(check bool) "lru keeps 1" true (resident lru 1);
  Alcotest.(check bool) "lru evicts 2" false (resident lru 2);
  let fifo = Hw.Tlb.create ~name:"t" ~capacity:2 () in
  fill fifo 1 10;
  fill fifo 2 20;
  ignore (Hw.Tlb.find fifo 1 : int);
  fill fifo 3 30;
  Alcotest.(check bool) "fifo evicts 1" false (resident fifo 1);
  Alcotest.(check bool) "fifo keeps 2" true (resident fifo 2)

(* Re-touching one vpn many times keeps it the youngest: the other entry
   is the victim. *)
let test_lru_hot_loop () =
  let t = Hw.Tlb.create ~policy:Hw.Tlb.Lru ~name:"t" ~capacity:2 () in
  fill t 1 10;
  fill t 2 20;
  for _ = 1 to 100 do
    ignore (Hw.Tlb.find t 1 : int)
  done;
  fill t 3 30;
  Alcotest.(check bool) "hot stays" true (resident t 1);
  Alcotest.(check bool) "cold goes" false (resident t 2);
  Alcotest.(check int) "size" 2 (Hw.Tlb.size t)

(* --- Golden report ---------------------------------------------------------- *)

(* The rendered profile of the pinned ctxsw workload, pinned byte-for-byte
   (see [Golden]). Any change to the sampler's decimation, the cost model's
   cycle stamps or the report renderers shows up here. *)
let test_golden_profile () =
  let spec =
    Workload.Figures.ctxsw_spec ~defense:Defense.split_standalone ~iters:40
  in
  let prof = ref None in
  let _result, _os =
    Workload.Harness.run_k ~tune:(fun k -> prof := Some (Prof.attach ~rate:64 k)) spec
  in
  Golden.check "profile-ctxsw" (profile_report (Option.get !prof))

(* --- Zero-access guards ---------------------------------------------------- *)

let test_hit_rate_guards () =
  let t = Hw.Tlb.create ~name:"t" ~capacity:4 () in
  Alcotest.(check bool) "tlb none" true (Hw.Tlb.hit_rate_opt t = None);
  let c = Hw.Cache.create ~name:"c" ~lines:4 () in
  Alcotest.(check bool) "cache none" true (Hw.Cache.hit_rate_opt c = None);
  Alcotest.(check string) "nan" "-" (Report.percent (0. /. 0.));
  Alcotest.(check string) "inf" "-" (Report.percent (1. /. 0.));
  Alcotest.(check string) "opt none" "-" (Report.percent_opt None);
  Alcotest.(check string) "opt some" "50%" (Report.percent_opt (Some 0.5))

let suite =
  [
    Test_equiv.(generated ~name:"attached profiler is bit-invisible" [ Prof_attached ]);
    Alcotest.test_case "sampler state round-trips exactly" `Quick test_sampler_roundtrip;
    Alcotest.test_case "rearm rejects a 2^31-1 slot ring" `Quick
      test_rearm_rejects_huge_ring;
    Alcotest.test_case "checkpoint/rearm replay renders identically" `Quick
      test_replay_identical;
    Alcotest.test_case "tlb sweep is -j invariant" `Slow (Test_equiv.test_grid "tlb sweep");
    Alcotest.test_case "golden profile report (ctxsw, rate 64)" `Quick
      test_golden_profile;
    Alcotest.test_case "lru keeps touched entries, fifo does not" `Quick
      test_lru_keeps_touched;
    Alcotest.test_case "lru survives a hot lookup loop" `Quick test_lru_hot_loop;
    Alcotest.test_case "zero-access hit rates render as '-'" `Quick test_hit_rate_guards;
  ]
