(** Reference-counted physical frame allocator.

    Reference counting supports copy-on-write sharing after [fork] and the
    shared code copies of split pages. Frame 0 is reserved and never handed
    out, so 0 can serve as a null frame value. *)

exception Out_of_frames

type t

val create : Hw.Phys.t -> t
val alloc : t -> int
(** Allocate a zeroed frame with refcount 1. @raise Out_of_frames. *)

val incref : t -> int -> unit
val decref : t -> int -> unit
(** Drop a reference; the frame returns to the free list at zero. *)

val refcount : t -> int -> int
val in_use : t -> int
(** Number of frames currently allocated (for the memory-overhead study). *)

val peak_in_use : t -> int
val free_frames : t -> int

val set_deny_next : t -> int -> unit
(** Fault injection: make the next [n] calls to {!alloc}/{!alloc_pair}
    raise {!Out_of_frames} regardless of actual free frames (transient
    allocator exhaustion). Not part of {!state} — this is injector state
    and is persisted in snapshot metadata by [lib/inject]. *)

val deny_next : t -> int
(** Remaining injected denials. *)

val register_share : t -> key:string -> frame:int -> unit
(** Publish an allocated frame in the shared-image registry under a
    content key (["digest/vpn"]). Later loads of the same key find it via
    {!find_share} and join with {!incref} instead of allocating a private
    copy. The entry drops automatically when the frame's refcount reaches
    zero. Registry state is derived and perf-only: it is not serialized
    and {!import} clears it. *)

val find_share : t -> string -> int option
(** The registered frame for a content key, if still allocated. *)

val unshare : t -> int -> int
(** Privatize ahead of a store: for a registered frame with other
    references, allocate-and-copy a private frame (returned; the caller
    repoints its PTE and drops nothing — the copy starts at refcount 1 and
    the original loses one reference). For a sole-owner registered frame,
    just unregister and return it. Unregistered frames — including all
    fork-COW sharing — are returned untouched. @raise Out_of_frames. *)

type state = {
  s_refcounts : (int * int) list;
      (** [(frame, refcount)] for every allocated frame, ascending; a
          frame not listed is free *)
  s_peak_in_use : int;
}
(** Serializable allocator state. A frame is free exactly when its
    refcount is zero, so the pairs are the whole free set; selection is
    deterministic lowest-address-first, so a restored machine hands out
    the same frame numbers as the original. *)

val export : t -> state
(** Deep copy — later allocator activity does not mutate the export. *)

val import : t -> state -> unit
(** Replace the allocator's state in place (same physical memory).
    @raise Invalid_argument on frame 0, a frame out of range, a repeated
    frame or a refcount [<= 0]. *)

val alloc_pair : t -> int * int
(** Allocate two side-by-side frames [(even, even+1)] — how the paper's
    prototype lays out a split page's code and data copies so the partner
    frame is found by arithmetic rather than stored. @raise Out_of_frames. *)
