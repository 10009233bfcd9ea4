(** Simulated physical memory: an array of fixed-size page frames.

    Frames are identified by index; frame ownership and allocation policy
    belong to the kernel's frame allocator, not to this module.

    Frame backing is zero-fill on demand: every frame starts as a reference
    to one all-zero page per [t], which is never written, and gets its own
    storage the first time a mutation path changes it ({!write8},
    {!write32} and their [_at] forms, {!fill} with a nonzero byte,
    {!blit_from_string}, {!write_from}, {!blit_from_bytes}, {!copy_frame}'s
    destination, {!flip_bit}, and ECC correct-on-read). A frame zeroed in
    place keeps its storage. The ECC shadow shares the zero page the same
    way. Backing is invisible to every read and export: only the cost of
    {!create}, {!is_zero_frame}, {!enable_ecc} and zero-filling an
    untouched frame depends on it. *)

type t

val create : ?page_size:int -> frames:int -> unit -> t
(** Fresh physical memory of [frames] zeroed frames (default 4 KiB pages).
    [page_size] must be a power of two. Costs one page plus one word and
    one byte per frame: no frame is backed until it is written. *)

val page_size : t -> int

val page_shift : t -> int
(** [log2 (page_size t)]: a vpn is [vaddr lsr page_shift]. *)

val frame_count : t -> int

val read8 : t -> frame:int -> off:int -> int
val write8 : t -> frame:int -> off:int -> int -> unit
val read32 : t -> frame:int -> off:int -> int
(** Little-endian 32-bit read; [off] must leave 4 bytes in the page. *)

val write32 : t -> frame:int -> off:int -> int -> unit
val fill : t -> frame:int -> int -> unit
(** Fill an entire frame with one byte value. [fill t ~frame 0] on a frame
    that was never written gives it no storage, but still fires the write
    watch. *)

val blit_from_string : t -> frame:int -> off:int -> string -> unit

val read_into : t -> frame:int -> off:int -> Bytes.t -> pos:int -> len:int -> unit
(** Copy [len] bytes at [off] into [dst] at [pos] — the kernel's bulk
    copy out of user memory. ECC scrubbing and its hook run exactly as for
    [len] ascending {!read8}s. *)

val write_from : t -> frame:int -> off:int -> string -> pos:int -> len:int -> unit
(** Copy [len] bytes of [src] from [pos] into the frame at [off] — the
    kernel's bulk copy into user memory, with the same ECC shadow and
    write-watch effects as [len] ascending {!write8}s. *)

val to_string : t -> frame:int -> string
(** Snapshot of a frame's contents. *)

val copy_frame : t -> src:int -> dst:int -> unit
(** Duplicate a frame — used when splitting a page into code/data copies. *)

val is_zero_frame : t -> frame:int -> bool
(** True when every byte of the frame is zero — lets serializers skip it.
    O(1) for a frame that was never written. *)

val materialized : t -> int
(** Frames that have their own storage: those written at least once since
    {!create} (ECC shadow frames are not counted). *)

val blit_to_bytes : t -> frame:int -> Bytes.t -> unit
(** Copy a whole frame into the first [page_size] bytes of a caller-owned
    buffer, avoiding the per-call allocation of {!to_string}. *)

val blit_from_bytes : t -> frame:int -> Bytes.t -> len:int -> unit
(** Overwrite the first [len] bytes of a frame from a caller-owned buffer. *)

(** {2 Write watch}

    Invalidation support for derived caches of frame contents (the decoded
    basic-block cache): {!watch_frame} flags a frame as backing derived
    state, and every mutation path ({!write8}, {!write32}, {!fill},
    {!blit_from_string}, {!write_from}, {!blit_from_bytes}, and {!copy_frame}'s
    destination) that touches a flagged frame clears the flag and fires the
    watch hook with the frame index. Unflagged frames pay one byte compare
    per store; the hook fires once per flagged frame per dirtying burst
    (re-flag after rebuilding). {!flip_bit} deliberately bypasses the watch
    (it models a DRAM bit error below the write path), so derived caches
    must not be used while ECC fault injection is enabled. *)

val set_write_watch : t -> (int -> unit) option -> unit
val watch_frame : t -> frame:int -> unit

(** {2 ECC model}

    Fault-injection support (lib/inject): when enabled, a shadow copy of
    every frame stands in for SECDED check bits. All write paths update
    primary and shadow together; all read paths ({!read8}, {!read32} and
    their [_at] variants) compare the bytes about to be read against the
    shadow and silently correct the primary on mismatch — the behaviour of
    a correctable DRAM error. Raw exports ({!to_string}, {!blit_to_bytes},
    {!is_zero_frame}) deliberately bypass the check so snapshots and
    forensics see the flipped bytes as they sit in the array. Disabled by
    default: the off path costs one field load per access and allocates
    nothing. *)

val enable_ecc : t -> unit
(** Build the shadow from the current frame contents (current state becomes
    ground truth) and start checking reads. *)

val disable_ecc : t -> unit
val ecc_enabled : t -> bool

val set_ecc_hook : t -> (int -> unit) option -> unit
(** Callback fired with the packed physical address of every corrected
    byte, at the moment of correction. @raise Invalid_argument when ECC is
    not enabled. *)

val ecc_corrections : t -> int
(** Total bytes corrected since {!enable_ecc} (0 when disabled). *)

val flip_bit : t -> frame:int -> off:int -> bit:int -> unit
(** Flip one bit of the primary copy {e without} updating the shadow — the
    injected soft error. The next checked read of that byte detects and
    corrects it. Works (as a plain silent flip) when ECC is disabled. *)

val ecc_shadow_write8 : t -> frame:int -> off:int -> int -> unit
(** Overwrite one shadow byte without touching the primary. Snapshot
    restore uses this to re-mark still-pending injected flips after
    {!enable_ecc} rebuilt the shadow from already-flipped frames; no-op
    when ECC is disabled. *)

val addr : t -> frame:int -> off:int -> int
val frame_of_addr : t -> int -> int
val off_of_addr : t -> int -> int

val read8_at : t -> int -> int
(** [read8_at t paddr] reads the byte at a packed physical address
    ([frame * page_size + off], i.e. {!addr}) without a (frame, off)
    tuple. Used by the MMU fast path. *)

val write8_at : t -> int -> int -> unit
val read32_at : t -> int -> int
val write32_at : t -> int -> int -> unit
