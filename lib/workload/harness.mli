(** Benchmark execution harness, redesigned around first-class {e experiment
    specs}: a {!spec} is a pure value describing a machine to build and run
    (defense, frames, fuel, guests, pipe wiring, paging mode, seed); {!run}
    executes one, {!run_fleet} executes a list domain-parallel via
    {!Fleet}. The description/execution split is what lets the paper's
    whole evaluation grid — independent simulated machines — fan out
    across cores with bit-identical output. *)

type result = {
  label : string;
  defense : string;
  cycles : int;
  insns : int;
  traps : int;
  split_faults : int;
  single_steps : int;
  ctx_switches : int;
  peak_frames : int;
  itlb_misses : int;
  dtlb_misses : int;
}

exception Did_not_finish of string
(** Raised when a workload deadlocks or exhausts its fuel. *)

(** {2 Experiment specs} *)

type guest = {
  image : Kernel.Image.t;
  eager : bool;  (** eager page mapping/duplication (prototype behaviour) *)
  protected : bool;  (** [false]: plain von Neumann view (§3.3.1 opt-out) *)
}

type wiring =
  | Isolated  (** no pipes between guests *)
  | Pipeline of { capacity : int option }
      (** cross-wire consecutive guest pairs' consoles (client/server
          workloads); [capacity] bounds the pipes, forcing blocking I/O *)

type spec = {
  label : string;
  defense : Defense.t;
  protection : Kernel.Protection.t option;
      (** overrides [Defense.to_protection defense] when set *)
  frames : int;
  fuel : int;
  quantum : int option;
  seed : int option;  (** kernel PRNG seed (stack jitter) *)
  itlb_capacity : int option;
  dtlb_capacity : int option;
  tlb_policy : Hw.Tlb.policy option;
      (** TLB replacement policy override (default hardware {!Hw.Tlb.Fifo}) *)
  caches : bool;
  share_images : bool;
      (** loader COW: share read-only image frames across identical spawns
          (default [false]) *)
  wiring : wiring;
  guests : guest list;
}

val guest : ?eager:bool -> ?protected:bool -> Kernel.Image.t -> guest
(** Defaults: demand paging, protected. *)

val spec :
  ?label:string ->
  ?protection:Kernel.Protection.t ->
  ?frames:int ->
  ?fuel:int ->
  ?quantum:int ->
  ?seed:int ->
  ?itlb_capacity:int ->
  ?dtlb_capacity:int ->
  ?tlb_policy:Hw.Tlb.policy ->
  ?caches:bool ->
  ?share_images:bool ->
  ?wiring:wiring ->
  defense:Defense.t ->
  guest list ->
  spec
(** Defaults: [frames] 16384, [fuel] 10^8, machine defaults for the rest,
    [label] the first guest's image name. @raise Invalid_argument on an
    empty guest list. *)

val single :
  ?label:string ->
  ?frames:int ->
  ?fuel:int ->
  ?eager:bool ->
  ?protected:bool ->
  ?seed:int ->
  defense:Defense.t ->
  Kernel.Image.t ->
  spec
(** One isolated guest. *)

val pair :
  ?label:string ->
  ?frames:int ->
  ?fuel:int ->
  ?capacity:int ->
  ?seed:int ->
  defense:Defense.t ->
  Kernel.Image.t ->
  Kernel.Image.t ->
  spec
(** Two guests with cross-wired consoles. *)

(** {2 Execution} *)

val build : ?obs:Obs.t -> spec -> Kernel.Os.t
(** Materialize the machine: create the kernel, spawn the guests, wire the
    pipes. Does not run it. *)

val run : ?obs:Obs.t -> spec -> result
(** Build and run to completion. @raise Did_not_finish on deadlock or fuel
    exhaustion. *)

val run_k : ?obs:Obs.t -> ?tune:(Kernel.Os.t -> unit) -> spec -> result * Kernel.Os.t
(** Like {!run}, but also returns the kernel, whose trace/metric state
    ([obs]) and hardware statistics remain inspectable. [tune] runs on the
    freshly built machine before it does — e.g. installing a syscall
    tracer. *)

val run_fleet :
  ?obs:Obs.t -> ?jobs:int -> spec list -> (result, Fleet.error) Stdlib.result list
(** Execute the specs on a {!Fleet} worker pool ([jobs] domains, default
    [Fleet.default_jobs ()]); results in submission order, so derived
    output is bit-identical for every [jobs]. A job that crashes or runs
    out of fuel yields [Error] without disturbing its siblings. Each job
    runs with a private obs sink; when [obs] is live, per-job metrics are
    folded into it in submission order ({!Obs.merge_metrics}) and the
    fleet records its own [fleet.*] metrics. *)

val run_fleet_exn : ?obs:Obs.t -> ?jobs:int -> spec list -> result list
(** Like {!run_fleet} but re-raising the first failure as
    {!Did_not_finish} — for experiments whose every machine must finish. *)

(** {2 Derived statistics} *)

val normalized : baseline:result -> result -> float
(** [baseline.cycles / result.cycles]: 0.9 = "runs at 90% of full speed",
    the paper's normalized-performance metric. *)

val geomean : float list -> float
(** Geometric mean (Unixbench-style index). @raise Invalid_argument on []. *)
