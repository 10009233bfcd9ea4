(** Translation lookaside buffer.

    The machine has two of these — an instruction-TLB and a data-TLB —
    mirroring the split-TLB design of modern x86 parts (paper §4.1.1). The
    split-memory technique works precisely because each TLB caches its own
    (vpn -> frame, permissions) mapping: once an entry is cached, later
    accesses are served from it without consulting the pagetable, so the two
    TLBs can deliberately be driven out of sync.

    One entry format: a slot is two ints, its vpn and the PTE word it
    caches, and every operation takes or returns that word — a negative
    word means no entry. The MMU hits ({!find}) and fills ({!fill}) word
    by word, so neither allocates; the cold paths ({!peek}, {!entries},
    {!tamper}, {!export}, {!import}) speak words too. *)

(** {1 PTE words}

    The x86 pagetable-entry layout, shared by the MMU's walker, the TLB
    slots, the kernel's TLB-fill hook and [Kernel.Hw_pagetable]: bit 0
    present, bit 1 writable, bit 2 user, bit 8 nx, the frame number from
    bit 12 up. A walker returns a negative word for a page that is not
    present. *)

val pte_present : int
val pte_writable : int
val pte_user : int
val pte_nx : int

val word : frame:int -> writable:bool -> user:bool -> nx:bool -> int
(** A present PTE word. *)

val frame_of_word : int -> int

(** Replacement policy. Under [Fifo] (the default) entries age in
    insertion order; under [Lru] every hit makes its entry the youngest,
    so the least-recently-used entry is the victim. Either way a hit, an
    insert and an eviction are O(1) and allocate nothing. *)
type policy = Fifo | Lru

val policy_name : policy -> string

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable flushes : int;
  mutable invalidations : int;
  mutable evictions : int;
}

type t

val create : ?policy:policy -> name:string -> capacity:int -> unit -> t
(** Default policy: {!Fifo}. *)

val name : t -> string
val capacity : t -> int
val policy : t -> policy
val size : t -> int
val stats : t -> stats

val find : t -> int -> int
(** The PTE word cached for a vpn, or [-1] on a miss; updates hit/miss
    statistics. The MMU fast path's lookup. *)

val note_hits : t -> int -> int -> unit
(** [note_hits t vpn n] accounts for [n] guaranteed hits on [vpn] without
    performing the lookups: hits advance by [n] and, under {!Lru}, [vpn]
    becomes the youngest entry, exactly as after [n] consecutive {!find}s.
    O(1) under both policies. The caller must know the entry is resident
    and cannot be evicted across the folded window — the block-dispatch
    contract for the bytes of instructions fetched from one page. *)

val peek : t -> int -> int
(** {!find} without touching statistics or recency (for tests and
    assertions). *)

val fill : t -> int -> int -> unit
(** [fill t vpn word] caches [word] for [vpn] (replacing any entry for the
    same vpn); evicts per the replacement {!policy} when full. The MMU's
    allocation-free fill. *)

val entries : t -> (int * int) list
(** Live [(vpn, word)] pairs sorted by vpn, without touching statistics —
    the fault-injection target list. *)

val tamper : t -> int -> (int -> int) -> bool
(** [tamper t vpn f] replaces the word cached for [vpn] with [f word] in
    place (the vpn itself cannot be changed), bypassing statistics and the
    replacement order: the entry keeps its age. Returns [false] if no
    entry is cached for [vpn]. This is the fault-injection surface: it
    models a bit flip inside a TLB cell, not an architectural fill. *)

val invalidate : t -> int -> unit
(** [invlpg]: drop the entry for one vpn, if present. *)

val flush : t -> unit
(** Drop everything — what a CR3 reload (context switch) does. *)

type state = {
  s_entries : (int * int) list;
      (** live [(vpn, word)] pairs in replacement order, oldest (the next
          victim) first *)
  s_hits : int;
  s_misses : int;
  s_flushes : int;
  s_invalidations : int;
  s_evictions : int;
}
(** Complete serializable TLB state: the replacement order is kept, so a
    restored TLB reproduces the original's future eviction order exactly. *)

val export : t -> state

val import : t -> state -> unit
(** Replace the TLB's contents and statistics with [state], filling its
    words oldest first. Raises [Invalid_argument] if [s_entries] holds
    more entries than {!capacity} or repeats a vpn. *)

val hit_rate_opt : t -> float option
(** Like {!hit_rate} but [None] before any lookup, so renderers can show
    "no traffic" ([-]) instead of a meaningless 0%. *)

val pp_stats : Format.formatter -> t -> unit

(** {1 Benchmark adapter}

    A decoded entry and its {!fill}, kept only for [bench/perf/loops.ml],
    whose TLB microbenchmark builds records; nothing in the library or
    its tests uses them. They go when that benchmark next changes. *)

type entry = { vpn : int; frame : int; user : bool; writable : bool; nx : bool }

val insert : t -> entry -> unit
(** {!fill} with the entry's word. *)
