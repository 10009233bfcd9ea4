(** Domain-parallel job executor: a fixed worker pool over OCaml 5
    [Domain.t] that runs a list of independent jobs and returns their
    results in submission order.

    Built for the evaluation grid: every cell of the paper's tables and
    figures is an independent simulated machine, so the whole grid fans
    out across cores. The contract that makes this safe to wire into the
    report generators:

    - {b Determinism}: results come back in submission order, so any
      output derived from them is bit-identical for every [jobs] value
      (including 1, which runs inline on the calling domain).
    - {b Containment}: a job that raises — a crashed machine, exhausted
      fuel — yields an [Error] carrying the job's index, label and the
      exception text; it never aborts the fleet or its siblings.
    - {b Isolation}: the pool shares nothing between jobs; each job must
      be self-contained (the simulator's machines are — see DESIGN.md §8).

    Implementation: stdlib only — a [Mutex]/[Condition] job queue drained
    by [min jobs (length items)] worker domains. *)

type error = {
  index : int;  (** submission position of the failed job *)
  label : string;  (** job label (see the [label] argument) *)
  reason : string;  (** [Printexc.to_string] of the raised exception *)
}

type stats = {
  jobs : int;  (** jobs submitted *)
  failures : int;  (** jobs that raised *)
  workers : int;  (** worker domains actually used *)
  wall_us : int;  (** wall-clock of the whole fleet run, microseconds *)
  job_us : int array;  (** per-job wall-clock, submission order *)
  speedup : float;  (** sum of per-job wall-clock over fleet wall-clock *)
}

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()], at least 1. *)

val map :
  ?obs:Obs.t ->
  ?jobs:int ->
  ?label:('a -> string) ->
  ('a -> 'b) ->
  'a list ->
  ('b, error) result list
(** [map f items] runs [f] over every item on at most [jobs] (default
    {!default_jobs}) worker domains and returns the outcomes in submission
    order. [jobs <= 1] runs inline on the calling domain — same results,
    no domains spawned. When [obs] is given, records the fleet metrics
    ([fleet.jobs], [fleet.failures], [fleet.workers], the [fleet.job_us]
    wall-time histogram and the [fleet.speedup] gauge) after all workers
    join. [label] names jobs in error reports (default: ["job"]). *)

val map_stats :
  ?obs:Obs.t ->
  ?jobs:int ->
  ?label:('a -> string) ->
  ('a -> 'b) ->
  'a list ->
  ('b, error) result list * stats
(** Like {!map}, also returning the run's {!stats}. *)
