(** The simulator's one deterministic PRNG (splitmix64).

    The kernel (stack jitter), the fault injector and the load generator
    each own their own instance, so no stream perturbs another. The
    stream is stable across OCaml versions, and the whole state is one
    int64, which a snapshot stores as one codec field. *)

type t

val make : int -> t
val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound). *)

val state : t -> int64
(** The cursor: {!set_state} on any instance resumes the stream here. *)

val set_state : t -> int64 -> unit
