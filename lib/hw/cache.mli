(** Direct-mapped cache timing model (physical-address indexed).

    Exists to give the paper's §4.2.4 observation real mechanics: writing a
    [ret] gadget onto a code page forces the coherency hardware to
    invalidate the instruction cache line and flush the pipeline, which is
    what made the ret-based ITLB load slower than single-stepping. The
    model tracks hits/misses/invalidations for timing only — no data is
    stored. *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable flushes : int;
}

type t

val create : ?line_bits:int -> name:string -> lines:int -> unit -> t
(** [line_bits] = log2 of the line size (default 6 = 64-byte lines). *)

val stats : t -> stats

val access : t -> int -> bool
(** Touch a physical address; [true] = hit. Misses allocate. *)

val invalidate : t -> int -> bool
(** Drop the line covering the address; [true] if it was present. *)

val flush : t -> unit

val hit_rate_opt : t -> float option
(** Like {!hit_rate} but [None] before any access, so renderers can show
    "no traffic" ([-]) instead of a meaningless 0%. *)
