(** Metric registry: named counters, float gauges, power-of-two-bucket
    histograms and labeled counter sets (e.g. per-pid, per-page tallies),
    exportable as JSON. Registration is find-or-create, so independent
    instrumentation sites can share a metric by name. *)

type counter = { c_name : string; mutable count : int }
type gauge = { g_name : string; mutable value : float }

type histogram = {
  h_name : string;
  mutable n : int;
  mutable sum : int;
  mutable vmin : int;
  mutable vmax : int;
  buckets : int array;
}

type labeled

type registry

val create : unit -> registry

val counter : registry -> string -> counter
(** Find or create. @raise Invalid_argument if the name is registered with
    a different kind. Same contract for the other three. *)

val gauge : registry -> string -> gauge
val histogram : registry -> string -> histogram
val labeled : registry -> string -> labeled

val incr : ?by:int -> counter -> unit
val set_gauge : gauge -> float -> unit

val observe : histogram -> int -> unit
(** Record one sample. Bucket 0 holds values <= 0; bucket [k] holds
    [[2^(k-1), 2^k)]. *)

val mean : histogram -> float

val nonzero_buckets : histogram -> (int * int * int) list
(** [(lo, hi, count)] for every non-empty bucket, ascending. *)

val incr_label : ?by:int -> labeled -> string -> unit

val label_cells : labeled -> (string * int) list
(** Descending by count (ties by key). *)

val detached_counter : string -> counter
(** A well-formed instrument registered in no registry — handed out by
    disabled [Obs] sinks so instrumentation never mutates shared state.
    Same for histograms and labeled tallies. *)

val detached_histogram : string -> histogram
val detached_labeled : string -> labeled

val merge : into:registry -> registry -> unit
(** Fold the second registry into [into], matching items by name in the
    source's creation order: counters and histograms accumulate, gauges
    take the source value, labeled cells add up. @raise Invalid_argument
    if a name is registered in [into] with a different kind. *)

val counters : registry -> (string * int) list
(** Creation order; same for the other accessors. *)

val gauges : registry -> (string * float) list
val histograms : registry -> histogram list
val labeled_sets : registry -> (string * (string * int) list) list

val to_json : registry -> Json.t
