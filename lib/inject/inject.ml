(* Library interface: plans, the engine, and the campaign runner with its
   differential no-fault oracle.

   Every campaign run is paired with a fault-free twin of the same
   scenario; the two machines are compared bit-for-bit (rendered event log,
   stop reason, cycle counter — the replay-gate comparison). The verdict
   taxonomy:

   - [Detected]: the faulty run logged more detection-class events than the
     twin (TLB-guard resync, ECC correction, OOM containment, an injection
     detection or fail-stop signal the twin didn't have);
   - [Masked]: no detection fired, but the event log and stop reason are
     identical to the twin — the fault was absorbed (cycle counts may
     legitimately differ, e.g. a restarted syscall);
   - [Escaped]: the run diverged from the twin and nothing detected
     anything — the failure class campaigns exist to prove empty;
   - [Clean]: nothing was injected (budget never fired) and the run is
     bit-identical, cycles included — the oracle's control arm. A
     zero-injection run that diverges is reported [Escaped]: it means the
     injection machinery itself perturbed the machine, which would
     invalidate every other verdict. *)

module Prng = Kernel.Prng
module Plan = Plan
module Engine = Engine

type outcome = Detected | Masked | Escaped | Clean

let outcome_name = function
  | Detected -> "detected"
  | Masked -> "masked"
  | Escaped -> "escaped"
  | Clean -> "clean"

type verdict = {
  v_label : string;
  v_scenario : string;
  v_seed : int;
  v_classes : string;
  v_outcome : outcome;
  v_injected : int;
  v_details : (string * int * string) list;
  v_detections : int;
  v_events_match : bool;
  v_cycles_match : bool;
  v_base_cycles : int;
  v_cycles : int;
  v_base_stop : string;
  v_stop : string;
}

let is_detection_event : Kernel.Event_log.event -> bool = function
  | Fault_detected _ | Injection_detected _ | Library_rejected _ | Signal_delivered _ ->
    true
  | _ -> false

let scenario_of (plan : Plan.t) =
  match Snap.Scenario.find plan.scenario with
  | Some s -> s
  | None -> invalid_arg ("Inject: unknown scenario " ^ plan.scenario)

let rendered_events os =
  List.map
    (fun e -> Fmt.str "%a" Kernel.Event_log.pp_event e)
    (Kernel.Event_log.to_list (Kernel.Os.log os))

(* Detection events of a run, rendered. The oracle compares these as a
   multiset: a detection event in the faulty run with no counterpart in the
   twin means a detector (or the kernel's fail-stop containment) fired on
   the fault. A plain count delta is wrong here — a fault that kills the
   victim early can remove the twin's detections while adding its own, and
   the counts cancel out. *)
let detection_events os =
  List.filter_map
    (fun e ->
      if is_detection_event e then Some (Fmt.str "%a" Kernel.Event_log.pp_event e)
      else None)
    (Kernel.Event_log.to_list (Kernel.Os.log os))

(* |a \ b| as multisets: occurrences of [b] elements are removed from [a]
   one-for-one. *)
let novel_events a b =
  let remove_first x l =
    let rec go acc = function
      | [] -> List.rev acc
      | y :: rest -> if y = x then List.rev_append acc rest else go (y :: acc) rest
    in
    go [] l
  in
  List.length (List.fold_left (fun acc x -> remove_first x acc) a b)

let cycles_of os = (Kernel.Os.cost os).Hw.Cost.cycles

let run_plan ?obs (plan : Plan.t) =
  let scenario = scenario_of plan in
  (* the fault-free twin first: same constructor, same seed, no engine *)
  let base = scenario.start ?obs () in
  let base_stop = Kernel.Os.run ~fuel:plan.fuel base in
  (* the armed run *)
  let os = scenario.start ?obs () in
  let eng = Engine.arm os plan in
  let stop = Kernel.Os.run ~fuel:plan.fuel os in
  let base_events = rendered_events base and events = rendered_events os in
  let events_match = base_events = events && base_stop = stop in
  let base_cycles = cycles_of base and run_cycles = cycles_of os in
  let cycles_match = base_cycles = run_cycles in
  let injected = Engine.injected_count eng in
  let det_delta = novel_events (detection_events os) (detection_events base) in
  let outcome =
    if injected = 0 then if events_match && cycles_match then Clean else Escaped
    else if Engine.detections eng > 0 || det_delta > 0 then Detected
    else if events_match then Masked
    else Escaped
  in
  {
    v_label = plan.label;
    v_scenario = plan.scenario;
    v_seed = plan.seed;
    v_classes = Plan.classes_string plan.classes;
    v_outcome = outcome;
    v_injected = injected;
    v_details =
      List.map
        (fun (i : Engine.injected) -> (Plan.class_name i.i_class, i.i_cycle, i.i_detail))
        (Engine.injected eng);
    v_detections = Engine.detections eng;
    v_events_match = events_match;
    v_cycles_match = cycles_match;
    v_base_cycles = base_cycles;
    v_cycles = run_cycles;
    v_base_stop = Snap.Replay.stop_name base_stop;
    v_stop = Snap.Replay.stop_name stop;
  }

(* Campaign over the fleet: one job per plan (twin + armed run inside the
   job, so any -j level sees self-contained work), results in submission
   order — the rendered summary is byte-identical for every -j. *)
let campaign ?obs ?jobs plans =
  let results =
    Fleet.map ?obs ?jobs ~label:(fun (p : Plan.t) -> p.label) (run_plan ?obs:None) plans
  in
  List.map2
    (fun (p : Plan.t) r ->
      match r with
      | Ok v -> v
      | Error (e : Fleet.error) ->
        failwith (Fmt.str "inject: plan %s crashed: %s" p.label e.reason))
    plans results

(* The CI campaign: every class against the benign scenario, plus the
   classes that interact with split bookkeeping against a live attack. *)
let default_plans ?(seed = 7) () =
  let on scenario cls =
    Plan.make
      ~label:(Fmt.str "%s@%s" (Plan.class_name cls) scenario)
      ~scenario ~seed ~classes:[ cls ] ()
  in
  List.map (on "benign") Plan.all_classes
  @ List.map (on "attack-break")
      [ Plan.Tlb_phantom; Plan.Tlb_wrong_pfn; Plan.Pte_flip; Plan.Frame_flip_code ]

(* The code-reuse extension of the oracle: the same differential twin
   runs pointed at the defense x attack cross-product scenarios — the ROP
   chain escaping split memory alone, and the CFI-stopped reuse attacks.
   The split-bookkeeping classes are the interesting ones: they perturb
   exactly the paging state those runs traverse, and the oracle proves a
   hardware fault cannot silently flip a matrix cell (shell where a
   detection belongs, or vice versa) without the divergence showing. *)
let reuse_plans ?(seed = 7) () =
  let on scenario cls =
    Plan.make
      ~label:(Fmt.str "%s@%s" (Plan.class_name cls) scenario)
      ~scenario ~seed ~classes:[ cls ] ()
  in
  List.concat_map
    (fun scenario ->
      List.map (on scenario)
        [ Plan.Tlb_phantom; Plan.Tlb_wrong_pfn; Plan.Pte_flip; Plan.Frame_flip_code ])
    [ "reuse-rop"; "reuse-rop-cfi"; "reuse-fptr-cfi" ]

let escaped verdicts = List.filter (fun v -> v.v_outcome = Escaped) verdicts

let tally verdicts =
  let count o = List.length (List.filter (fun v -> v.v_outcome = o) verdicts) in
  (count Detected, count Masked, count Escaped, count Clean)

let render_summary ppf verdicts =
  Fmt.pf ppf "fault-injection campaign: %d plans (each paired with a fault-free twin)@\n@\n"
    (List.length verdicts);
  Fmt.pf ppf "%-28s %-16s %4s  %-9s %3s %3s %-8s %s@\n" "plan" "scenario" "seed"
    "outcome" "inj" "det" "run" "cycles base->faulty";
  List.iter
    (fun v ->
      Fmt.pf ppf "%-28s %-16s %4d  %-9s %3d %3d %-8s %d->%d@\n" v.v_label v.v_scenario
        v.v_seed (outcome_name v.v_outcome) v.v_injected v.v_detections
        (if v.v_events_match then "ok" else "diverged")
        v.v_base_cycles v.v_cycles)
    verdicts;
  (* escaped runs print their injection journal — the first thing a
     diagnosis needs *)
  List.iter
    (fun v ->
      if v.v_outcome = Escaped then
        List.iter
          (fun (cls, cycle, detail) ->
            Fmt.pf ppf "  ! %s: %s at cycle %d: %s@\n" v.v_label cls cycle detail)
          v.v_details)
    verdicts;
  (* per-class roll-up, in order of first appearance *)
  let classes =
    List.fold_left
      (fun acc v -> if List.mem v.v_classes acc then acc else acc @ [ v.v_classes ])
      [] verdicts
  in
  Fmt.pf ppf "@\nper-class:@\n";
  List.iter
    (fun cls ->
      let vs = List.filter (fun v -> v.v_classes = cls) verdicts in
      let injected = List.fold_left (fun a v -> a + v.v_injected) 0 vs in
      let d, m, e, c = tally vs in
      Fmt.pf ppf "  %-20s plans=%d injected=%d detected=%d masked=%d escaped=%d clean=%d@\n"
        cls (List.length vs) injected d m e c)
    classes;
  let d, m, e, c = tally verdicts in
  let injected = List.fold_left (fun a v -> a + v.v_injected) 0 verdicts in
  Fmt.pf ppf "@\ntotal: injected=%d detected=%d masked=%d escaped=%d clean=%d@\n" injected
    d m e c

let summary_string verdicts = Fmt.str "%a" render_summary verdicts

(* ------------------------------------------------------------------ *)
(* Snapshot integration                                                *)
(* ------------------------------------------------------------------ *)

let meta_plan_key = "inject.plan"
let meta_state_key = "inject.state"
let plan_magic = "INJPLAN1"

let checkpoint os engine =
  Snap.Snapshot.checkpoint
    ~meta:
      [
        (meta_plan_key, Snap.Codec.encode ~magic:plan_magic Plan.codec (Engine.plan engine));
        (meta_state_key, Engine.export engine);
      ]
    os

let rearm os snap =
  match
    (Snap.Snapshot.find_meta snap meta_plan_key, Snap.Snapshot.find_meta snap meta_state_key)
  with
  | Some p, Some st -> Engine.rearm os (Snap.Codec.decode ~magic:plan_magic Plan.codec p) st
  | _ -> invalid_arg "Inject.rearm: snapshot carries no injector state"
