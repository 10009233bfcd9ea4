(** Decoded basic-block cache for the CPU dispatch loop.

    Blocks are keyed by the {e physical} address of their first byte and
    validated against a per-frame generation counter driven by the
    {!Phys} write watch, so any mutation of a frame that backs cached
    blocks (guest self-modifying stores, kernel gadget writes, demand
    paging into recycled frames, COW copies, snapshot-restore refills)
    invalidates them. Construction is side-effect-free and page-bounded:
    decoding stops at — and includes — control transfers, [int], and
    [hlt] ({!Isa.Insn.is_block_end}), and stops {e before} an instruction
    that fails to decode or whose operands would cross the page edge.

    The cache stores pre-decoded instructions only; every architectural
    side effect of fetching them (TLB traffic, walk charges, sampling,
    icache touches) is replayed by {!Cpu.run_block} at dispatch time, so
    enabling the cache is observationally invisible. Remaps and [invlpg]
    need no invalidation: they happen between [run_block] calls, and each
    call translates its first fetch and every cross-page transfer through
    the ITLB, so a new mapping resolves to a new frame and hence a new
    key. *)

type block = private {
  b_pa0 : int;  (** packed paddr ([frame * page_size + off]) of byte 0 *)
  b_frame : int;
  b_gen : int;
  insns : Isa.Insn.t array;
  sizes : int array;
  offs : int array;  (** byte offset of each instruction from [b_pa0] *)
  n : int;
      (** number of decoded instructions; [0] is a negative block — the
          first instruction is undecodable or straddles the page edge, and
          dispatch must fall back to the byte-at-a-time interpreter *)
  mutable next0 : block;
      (** chain link: the block {!follow} last went to from this one that
          was not already linked, or {!none} *)
  mutable next1 : block;  (** the link [next0] displaced, or {!none} *)
  mutable links_epoch : int;
      (** the cache epoch both links were made in; the links are dead once
          {!clear} has moved the epoch on *)
}

val none : block
(** A placeholder block that no lookup returns ([n = 0], [b_frame = -1]):
    the dispatcher's "no current block" state. Its links are never
    written. *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable blocks_built : int;
  mutable insns_built : int;
}

type t

val create : ?max_block:int -> ?max_blocks:int -> phys:Phys.t -> unit -> t
(** Create a cache over [phys] and install its {!Phys.set_write_watch}
    hook (one cache per physical memory). [max_block] (default 128) caps
    instructions per block; [max_blocks] (default 65536) bounds the table
    — reaching it clears the cache wholesale, deterministically. *)

val lookup : t -> int -> block
(** [lookup t pa0] returns the block starting at packed physical address
    [pa0], building (or rebuilding, if stale) it from the frame's current
    bytes. *)

val follow : t -> block -> int -> block
(** [follow t b pa0] is [lookup t pa0] reached from block [b], with the
    same result and the same {!stats} (a hit bumps [hits]). It skips the
    table probe when one of [b]'s two links is the block at [pa0] and is
    still valid: same [b_pa0], its frame's generation unchanged, and no
    {!clear} (which includes the [max_blocks] reset) since the link was
    made. Otherwise it runs [lookup] and links [b] to the result. From
    {!none} it is plain [lookup]. *)

val generations : t -> int array
(** The per-frame generation counters, indexed by frame; callers only
    read them. A block is stale — its frame was written since it was
    decoded — when its [b_gen] differs from its frame's entry. Dispatch
    checks this before every instruction, not just at block entry, and
    reads the array directly so the check is not a call. *)

val clear : t -> unit
(** Drop all cached blocks (snapshot restore; derived state only) and
    start a new epoch, which kills every chain link. *)

val stats : t -> stats
