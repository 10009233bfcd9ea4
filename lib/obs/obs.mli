(** Unified observability layer: cycle-stamped structured traces plus a
    metric registry, shared by the hardware model, the kernel and the
    split-memory defense.

    An [Obs.t] couples a {!Trace.ring} sink, a {!Metrics.registry} and a
    clock (wired to the virtual cycle counter by [Kernel.Os.create]). The
    {!null} instance is permanently disabled: every emit path checks
    [enabled] first, so instrumented code pays a single branch and never
    allocates when observability is off — simulation results (cycle
    counts) are identical with and without it. *)

module Json = Json
module Trace = Trace
module Metrics = Metrics

type t

val null : t
(** The shared zero-cost disabled sink; all operations on it are no-ops. *)

val create : ?trace_capacity:int -> unit -> t
(** A live sink with a bounded trace ring (default 8192 events). *)

val enabled : t -> bool

val set_clock : t -> (unit -> int) -> unit
(** Install the timestamp source (the kernel wires this to
    [cost.cycles]). No-op on {!null}. *)

val metrics : t -> Metrics.registry
(** The raw registry (no snapshot hooks run); see {!snapshot}. *)

val ring : t -> Trace.ring
val events : t -> Trace.event list

val event : t -> ?args:(string * Json.t) list -> cat:string -> string -> unit
(** Emit an instant event stamped with the current clock. *)

val span_begin :
  t -> key:string -> ?args:(string * Json.t) list -> cat:string -> string -> unit
(** Open a span under [key] (e.g. ["ss:pid3"]) for cross-callback pairing. *)

val span_end :
  t -> key:string -> ?args:(string * Json.t) list -> cat:string -> string -> int option
(** Close the span under [key]; returns its duration in cycles, or [None]
    if no span is open under that key (or disabled). *)

val complete :
  t -> ?args:(string * Json.t) list -> cat:string -> since:int -> string -> unit
(** Emit a finished span: begins at [since], ends now. *)

val counter : t -> string -> Metrics.counter
(** Find-or-create in the live registry; on a disabled sink, a fresh
    {e detached} instrument (registered nowhere, never read back), so
    wiring instrumentation to {!null} mutates no shared state — required
    for machines running on multiple domains. Same for the other kinds. *)

val histogram : t -> string -> Metrics.histogram
val labeled : t -> string -> Metrics.labeled

val count : t -> string -> unit
(** One-shot counter bump by name; no-op when disabled. *)

val add_snapshot_hook : t -> (unit -> unit) -> unit
(** Register a callback run by {!snapshot} — used to import point-in-time
    hardware statistics (TLB/cache/cost) as gauges. No-op on {!null}. *)

val snapshot : t -> Metrics.registry
(** Run the snapshot hooks, then return the registry. *)

val merge_metrics : into:t -> t -> unit
(** Fold the second sink's metrics into [into]: runs the source's snapshot
    hooks (importing its final hardware gauges), then merges registries via
    {!Metrics.merge}. Trace events are not merged (their timestamps are
    per-machine cycle counts). No-op if either sink is disabled. Used by
    the fleet to aggregate per-job sinks in submission order. *)

val write_trace : t -> string -> unit
(** Write the retained events as JSONL. *)

val write_chrome_trace : t -> string -> unit
(** Write the retained events as one Chrome [trace_event] document. *)
