(** Periodic auto-checkpointing with a bounded snapshot ring.

    Attaches to the machine probe's [boundary] slot a callback that
    checkpoints the machine every [every_cycles] simulated cycles (sampled
    at scheduler-loop boundaries, so each snapshot is replay-exact). At most [keep] snapshots
    are retained; the oldest is evicted when the ring is full — graceful
    degradation rather than unbounded memory growth. *)

type t

val install : every_cycles:int -> keep:int -> Kernel.Os.t -> t
(** Replaces any hook already in the [boundary] slot.
    @raise Invalid_argument if [every_cycles <= 0] or [keep <= 0]. *)

val uninstall : t -> unit
(** Empty the [boundary] slot; retained snapshots stay readable. *)

val snapshots : t -> Snapshot.t list
(** Retained snapshots, oldest first. *)

val latest : t -> Snapshot.t option
val taken : t -> int
(** Total checkpoints taken (including evicted ones). *)

val evicted : t -> int
