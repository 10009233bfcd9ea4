module Json = Json
module Trace = Trace
module Metrics = Metrics

type t = {
  enabled : bool;
  mutable clock : unit -> int;
  ring : Trace.ring;
  metrics : Metrics.registry;
  open_spans : (string, int) Hashtbl.t;
  mutable hooks : (unit -> unit) list;
}

let make enabled capacity =
  {
    enabled;
    clock = (fun () -> 0);
    ring = Trace.create ~capacity ();
    metrics = Metrics.create ();
    open_spans = Hashtbl.create 8;
    hooks = [];
  }

(* The shared disabled instance: every emit path checks [enabled] first, so
   attaching the null sink costs one branch and allocates nothing. All
   mutating entry points below are no-ops when disabled, which keeps this
   shared value truly inert. *)
let null = make false 1

let create ?(trace_capacity = 8192) () = make true trace_capacity

let enabled t = t.enabled
let set_clock t f = if t.enabled then t.clock <- f
let metrics t = t.metrics
let ring t = t.ring
let events t = Trace.to_list t.ring

let event t ?(args = []) ~cat name =
  if t.enabled then
    Trace.add t.ring { Trace.ts = t.clock (); cat; name; ph = Trace.Instant; args }

let span_begin t ~key ?(args = []) ~cat name =
  if t.enabled then begin
    let ts = t.clock () in
    Hashtbl.replace t.open_spans key ts;
    Trace.add t.ring { Trace.ts; cat; name; ph = Trace.Begin; args }
  end

let span_end t ~key ?(args = []) ~cat name =
  if not t.enabled then None
  else
    match Hashtbl.find_opt t.open_spans key with
    | None -> None
    | Some t0 ->
      Hashtbl.remove t.open_spans key;
      let ts = t.clock () in
      Trace.add t.ring { Trace.ts; cat; name; ph = Trace.End; args };
      Some (ts - t0)

let complete t ?(args = []) ~cat ~since name =
  if t.enabled then begin
    let now = t.clock () in
    Trace.add t.ring
      { Trace.ts = since; cat; name; ph = Trace.Complete (now - since); args }
  end

(* When disabled, hand out fresh detached instruments instead of touching
   the registry: [null] is shared process-wide (and, with lib/fleet, across
   domains), so it must never be mutated — not even by instrument
   registration. *)
let counter t name =
  if t.enabled then Metrics.counter t.metrics name else Metrics.detached_counter name

let histogram t name =
  if t.enabled then Metrics.histogram t.metrics name else Metrics.detached_histogram name

let labeled t name =
  if t.enabled then Metrics.labeled t.metrics name else Metrics.detached_labeled name

let count t name = if t.enabled then Metrics.incr (Metrics.counter t.metrics name)

let add_snapshot_hook t f = if t.enabled then t.hooks <- f :: t.hooks

let snapshot t =
  List.iter (fun f -> f ()) (List.rev t.hooks);
  t.metrics

(* Fold a per-job sink into an aggregate one (lib/fleet): run the source's
   snapshot hooks first so its point-in-time hardware gauges are current,
   then merge the registries. Trace events are deliberately not merged —
   their timestamps are per-machine cycle counts with no common clock. *)
let merge_metrics ~into src =
  if into.enabled && src.enabled then
    Metrics.merge ~into:into.metrics (snapshot src)

let write_trace t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      Trace.write_jsonl oc (events t))

let write_chrome_trace t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (Json.to_string (Trace.chrome (events t)));
      output_char oc '\n')
