(* Scale-out invariants: deterministic pid-sorted iteration, the paired
   free list's failure atomicity, loader-COW frame sharing, replay
   determinism through allocator exhaustion, and flat allocation per
   process from 100 to 10k processes. *)

module H = Workload.Harness
module G = Workload.Guests

let check = Alcotest.check
let int_list = Alcotest.(list int)

(* --- pid-sorted iteration ------------------------------------------------- *)

(* [Machine.procs] and [children_of] promise pid-ascending order — that
   ordering is what makes every scan (wake recheck, snapshot export,
   all-zombie sweeps) independent of hash-table layout. *)
let test_pid_sorted_iteration () =
  let k =
    Kernel.Os.create ~protection:(Defense.to_protection Defense.unprotected) ()
  in
  let img = G.scale_unit ~rounds:1 () in
  let spawned = List.init 10 (fun _ -> (Kernel.Os.spawn k img).pid) in
  let m = Kernel.Os.machine k in
  let pids () = List.map (fun (p : Kernel.Proc.t) -> p.pid) (Kernel.Machine.procs m) in
  check int_list "spawn order is pid order" spawned (pids ());
  check int_list "procs iterate pid-ascending" (List.sort compare (pids ())) (pids ());
  let parent = Option.get (Kernel.Machine.proc m 3) in
  let c1 = Kernel.Machine.do_fork m parent in
  let c2 = Kernel.Machine.do_fork m parent in
  check int_list "children_of is pid-ascending" [ c1; c2 ]
    (List.map
       (fun (p : Kernel.Proc.t) -> p.pid)
       (Kernel.Machine.children_of m parent));
  check int_list "procs stay sorted after forks" (List.sort compare (pids ())) (pids ())

(* --- paired free list: failure leaves ordering untouched ------------------- *)

(* Fragment physical memory so only odd frames are free (no adjacent
   even/even+1 pair exists), then attempt [alloc_pair]. The failed attempt
   must not disturb the free set: the subsequent single-frame allocation
   sequence is identical to a control allocator that never tried. *)
let test_alloc_pair_failure_ordering () =
  let fragmented () =
    let phys = Hw.Phys.create ~frames:16 () in
    let a = Kernel.Frame_alloc.create phys in
    let all = List.init 15 (fun _ -> Kernel.Frame_alloc.alloc a) in
    check int_list "allocation is lowest-first" (List.init 15 (fun i -> i + 1)) all;
    List.iter
      (fun f -> if f mod 2 = 1 then Kernel.Frame_alloc.decref a f)
      all;
    a
  in
  let drain a = List.init 8 (fun _ -> Kernel.Frame_alloc.alloc a) in
  let control = fragmented () in
  let tried = fragmented () in
  (match Kernel.Frame_alloc.alloc_pair tried with
  | _ -> Alcotest.fail "alloc_pair found a pair in pairless memory"
  | exception Kernel.Frame_alloc.Out_of_frames -> ());
  check int_list "failed alloc_pair preserves allocation order" (drain control)
    (drain tried);
  (* And with a pair available, it is the lowest adjacent one. *)
  let a = fragmented () in
  Kernel.Frame_alloc.decref a 6;
  Kernel.Frame_alloc.decref a 10;
  let even, odd = Kernel.Frame_alloc.alloc_pair a in
  check int_list "lowest adjacent pair wins" [ 6; 7 ] [ even; odd ];
  check int_list "singles resume below the taken pair" [ 1; 3; 5; 9 ]
    (List.init 4 (fun _ -> Kernel.Frame_alloc.alloc a))

(* --- loader COW: shared image frames -------------------------------------- *)

(* quantum < guest length keeps all N guests resident at once; under the
   mixed-only policy nothing in scale_unit splits, so with sharing on the
   image frames are machine-global: peak frames must be flat in N, and
   far below the unshared machine's N x working-set. *)
let scale_spec ~share n =
  H.spec
    ~label:(Fmt.str "scale-%d" n)
    ~quantum:32 ~share_images:share ~defense:Defense.split_mixed_plus_nx
    (List.init n (fun _ -> H.guest (G.scale_unit ~rounds:2 ())))

let test_shared_frames_sublinear () =
  let peak n share = (H.run (scale_spec ~share n)).peak_frames in
  let p2 = peak 2 true and p16 = peak 16 true in
  let u16 = peak 16 false in
  check Alcotest.int "shared peak is flat in N" p2 p16;
  if u16 < 8 * p16 then
    Alcotest.failf "unshared peak %d not ~16x the shared %d" u16 p16;
  (* identical cost counters either way: sharing is invisible to the
     deterministic cost model, it only changes physical layout *)
  let r_s = H.run (scale_spec ~share:true 16) in
  let r_u = H.run (scale_spec ~share:false 16) in
  check Alcotest.int "cycles unchanged by sharing" r_u.cycles r_s.cycles;
  check Alcotest.int "ctx switches unchanged by sharing" r_u.ctx_switches
    r_s.ctx_switches

(* --- replay determinism: restore rebuilds the share registry --------------- *)

(* The share registry is derived state, cleared by the allocator import; a
   restored machine must re-share (Machine.rebuild_shares) or its
   post-restore allocations diverge from the original run. Checkpoint a
   shared-image machine mid-run and replay it. *)
let test_replay_rebuilds_shares () =
  let build () =
    let defense = Defense.split_mixed_plus_nx in
    let k =
      Kernel.Os.create ~frames:512 ~quantum:32 ~share_images:true
        ~protection:(Defense.to_protection defense) ()
    in
    let img = G.scale_unit ~rounds:2 () in
    for _ = 1 to 40 do
      ignore (Kernel.Os.spawn k img : Kernel.Proc.t)
    done;
    k
  in
  let report = Snap.Replay.check ~at:800 build in
  if not (Snap.Replay.ok report) then
    Alcotest.failf "shared-image replay diverged: %a" Snap.Replay.pp report

(* Same property through an OOM storm: too many all-pages guests for the
   frame budget, so the run is dominated by Out_of_frames containment
   (oom kills). Which processes die depends on exact allocation order —
   the strongest probe that a restored allocator + share registry resumes
   the original frame-for-frame sequence. *)
let test_replay_through_oom () =
  let build () =
    let defense = Defense.split_standalone in
    let k =
      Kernel.Os.create ~frames:96 ~quantum:32 ~share_images:true
        ~protection:(Defense.to_protection defense) ()
    in
    let img = G.scale_unit ~rounds:2 () in
    for _ = 1 to 16 do
      ignore (Kernel.Os.spawn k img : Kernel.Proc.t)
    done;
    k
  in
  (* sanity: this workload actually exhausts frames *)
  let k = build () in
  ignore (Kernel.Os.run k : Kernel.Os.stop_reason);
  let ooms =
    List.length
      (List.filter
         (function
           | Kernel.Event_log.Fault_detected { kind = "oom"; _ } -> true
           | _ -> false)
         (Kernel.Event_log.to_list (Kernel.Os.log k)))
  in
  if ooms = 0 then Alcotest.fail "workload did not trigger any oom kill";
  let report = Snap.Replay.check ~at:900 build in
  if not (Snap.Replay.ok report) then
    Alcotest.failf "replay through oom storm diverged: %a" Snap.Replay.pp report

(* --- minor words per process: flat from 100 to 10k processes -------------- *)

(* The deterministic companion of bench's [scale.per_proc_ratio] gate row,
   under its bound: minor-heap words per process over one run (machine
   construction excluded, as the row excludes it from its clock) at 10k
   processes over 100. The 10k machine runs first, so a first run's
   one-time allocations are spread over 10k processes, not 100. *)
let test_minor_words_per_proc () =
  let img = G.scale_unit ~rounds:2 () in
  let per n =
    let s =
      H.spec ~frames:32768 ~quantum:32 ~share_images:true ~defense:Defense.split_mixed_plus_nx
        (List.init n (fun _ -> H.guest img))
    in
    let k = H.build s in
    let w0 = Gc.minor_words () in
    ignore (Kernel.Os.run ~fuel:s.fuel k : Kernel.Os.stop_reason);
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let big = per 10_000 in
  let small = per 100 in
  if big /. small > 1.5 then
    Alcotest.failf "%.1f minor words per process at 10k, %.1f at 100: ratio %.3f > 1.5" big
      small (big /. small)

let suite =
  [
    Alcotest.test_case "procs and children iterate pid-sorted" `Quick
      test_pid_sorted_iteration;
    Alcotest.test_case "alloc_pair failure preserves free-list order" `Quick
      test_alloc_pair_failure_ordering;
    Alcotest.test_case "shared image frames are sublinear in process count" `Quick
      test_shared_frames_sublinear;
    Alcotest.test_case "restore rebuilds the share registry (replay)" `Quick
      test_replay_rebuilds_shares;
    Alcotest.test_case "replay is bit-exact through an oom storm" `Quick
      test_replay_through_oom;
    Alcotest.test_case "minor words per process: 10k over 100 <= 1.5" `Quick
      test_minor_words_per_proc;
  ]
