type report = {
  checkpoint_cycle : int;
  ref_stop : Kernel.Os.stop_reason;
  replay_stop : Kernel.Os.stop_reason;
  ref_cycles : int;
  replay_cycles : int;
  ref_events : string list;
  replay_events : string list;
  divergence : string option;
}

let ok r = r.divergence = None

let stop_name : Kernel.Os.stop_reason -> string = function
  | All_exited -> "all_exited"
  | All_blocked -> "all_blocked"
  | Fuel_exhausted -> "fuel_exhausted"

let render_log os =
  List.map
    (Fmt.str "%a" Kernel.Event_log.pp_event)
    (Kernel.Event_log.to_list (Kernel.Os.log os))

let cost_fields (c : Hw.Cost.t) =
  [
    ("cycles", c.cycles);
    ("insns", c.insns);
    ("traps", c.traps);
    ("split_faults", c.split_faults);
    ("single_steps", c.single_steps);
    ("syscalls", c.syscalls);
    ("ctx_switches", c.ctx_switches);
  ]

let first_divergence ~ref_stop ~replay_stop ~ref_cost ~replay_cost ~ref_events
    ~replay_events =
  if ref_stop <> replay_stop then
    Some (Fmt.str "stop reason: ref=%s replay=%s" (stop_name ref_stop) (stop_name replay_stop))
  else
    match
      List.find_opt
        (fun ((_, a), (_, b)) -> a <> b)
        (List.combine ref_cost replay_cost)
    with
    | Some ((name, a), (_, b)) ->
      Some (Fmt.str "cost.%s: ref=%d replay=%d" name a b)
    | None ->
      let la = List.length ref_events and lb = List.length replay_events in
      if la <> lb then Some (Fmt.str "event count: ref=%d replay=%d" la lb)
      else
        List.combine ref_events replay_events
        |> List.mapi (fun i (a, b) -> (i, a, b))
        |> List.find_opt (fun (_, a, b) -> a <> b)
        |> Option.map (fun (i, a, b) ->
               Fmt.str "event %d: ref=%S replay=%S" i a b)

let check ?(fuel_to_checkpoint = 1500) ?(fuel = 2_000_000) os =
  ignore (Kernel.Os.run ~fuel:fuel_to_checkpoint os : Kernel.Os.stop_reason);
  let snap = Snapshot.checkpoint os in
  let ref_stop = Kernel.Os.run ~fuel os in
  let ref_cost = cost_fields (Kernel.Os.cost os) in
  let ref_events = render_log os in
  (* through the wire format, so every replay also checks the codec *)
  Snapshot.restore os (Snapshot.decode (Snapshot.encode snap));
  let replay_stop = Kernel.Os.run ~fuel os in
  let replay_cost = cost_fields (Kernel.Os.cost os) in
  let replay_events = render_log os in
  let divergence =
    first_divergence ~ref_stop ~replay_stop ~ref_cost ~replay_cost ~ref_events
      ~replay_events
  in
  ( {
      checkpoint_cycle = Snapshot.cycle snap;
      ref_stop;
      replay_stop;
      ref_cycles = List.assoc "cycles" ref_cost;
      replay_cycles = List.assoc "cycles" replay_cost;
      ref_events;
      replay_events;
      divergence;
    },
    snap )

let pp ppf r =
  match r.divergence with
  | None ->
    Fmt.pf ppf
      "replay OK: checkpoint@%d cycles, both runs ended at %d cycles (%s), %d events \
       identical"
      r.checkpoint_cycle r.ref_cycles (stop_name r.ref_stop)
      (List.length r.ref_events)
  | Some d ->
    Fmt.pf ppf "replay DIVERGED: checkpoint@%d cycles — %s" r.checkpoint_cycle d
