type t = {
  os : Kernel.Os.t;
  every_cycles : int;
  keep : int;
  mutable next_at : int;
  mutable snaps : Snapshot.t list;  (* newest first *)
  mutable taken : int;
  mutable evicted : int;
}

let tick r () =
  let cycles = (Kernel.Os.cost r.os).cycles in
  if cycles >= r.next_at then begin
    let snap = Snapshot.checkpoint ~meta:[ ("source", "auto-ring") ] r.os in
    r.snaps <- snap :: r.snaps;
    r.taken <- r.taken + 1;
    if List.length r.snaps > r.keep then begin
      r.snaps <- List.filteri (fun i _ -> i < r.keep) r.snaps;
      r.evicted <- r.evicted + 1
    end;
    (* schedule relative to now, not to the nominal slot: a long quantum
       can overshoot several periods and we don't want a catch-up burst *)
    r.next_at <- cycles + r.every_cycles
  end

let install ~every_cycles ~keep os =
  if every_cycles <= 0 then invalid_arg "Ring.install: every_cycles must be positive";
  if keep <= 0 then invalid_arg "Ring.install: keep must be positive";
  let r =
    {
      os;
      every_cycles;
      keep;
      next_at = (Kernel.Os.cost os).cycles + every_cycles;
      snaps = [];
      taken = 0;
      evicted = 0;
    }
  in
  (Kernel.Os.probe os).boundary <- Some (tick r);
  r

let uninstall r = (Kernel.Os.probe r.os).boundary <- None
let snapshots r = List.rev r.snaps
let latest r = match r.snaps with [] -> None | s :: _ -> Some s
let taken r = r.taken
let evicted r = r.evicted
