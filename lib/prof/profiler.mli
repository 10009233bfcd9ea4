(** Address-sampling profiler (the PEBS-style workflow, in-simulator).

    {!attach} threads a {!Sampler} through a machine's MMU translation
    path: every [rate]-th successful translation records
    [{cycle; pid; vpn; access; tlb_hit; split_page}] into a bounded ring.
    Decimation is driven by a deterministic per-machine counter, so runs
    are reproducible and snapshot replays sample identically; pid
    attribution comes from the scheduler's context-switch hook.

    Overhead follows the [lib/obs] discipline: with no profiler attached
    the MMU pays one branch per translation and stays allocation-free
    (the CI alloc gate runs in this configuration); attached, each
    translation costs a closure call and each {e sampled} translation a
    few int stores. When the machine's obs sink is live, the profiler
    also exports [prof.*] gauges (rate, samples, dropped, taken,
    translations) into metrics snapshots. *)

type t

val attach : ?rate:int -> Kernel.Os.t -> t
(** Install a sampler with the default capacity on the machine ([rate]
    default 64). Replaces any previously attached profiler's hooks. *)

val sampler : t -> Sampler.t
val samples : t -> Sampler.sample list
(** Live samples, oldest first. *)

(** {2 Snapshot integration}

    Sampler state (ring contents, decimation phase, counters, pid
    attribution) rides in snapshot metadata under ["prof.state"],
    encoded with {!Sampler.codec} — the same extension mechanism lib/inject
    uses; the snapshot format itself is untouched. *)

val checkpoint : t -> Snap.Snapshot.t
(** [Snap.Snapshot.checkpoint] of the profiled machine with the sampler
    state in its metadata. *)

val rearm : Kernel.Os.t -> Snap.Snapshot.t -> t option
(** After [Snap.Snapshot.restore os snap], rebuild the profiler from the
    snapshot's sampler state and reinstall its hooks on [os]; [None] if
    the snapshot carries no profiler state. The rearmed profiler's future
    samples are bit-identical to the original run's.
    @raise Snap.Codec.Corrupt, leaving [os] untouched, if that state does
    not decode. *)
