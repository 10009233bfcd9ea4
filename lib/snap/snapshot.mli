(** Whole-machine snapshots: checkpoint/restore of a live simulation.

    A snapshot is a deep, immutable copy of everything that determines the
    simulation's future: CPU registers, both TLBs (including their
    replacement order), physical frames (sparse — all-zero frames are
    skipped), the frame allocator, every process (pagetables with
    code/data-copy split mappings, regions, descriptors, pipes), registered
    libraries, scheduler state, the kernel PRNG, cost counters and the
    event log.

    The binary format is versioned ({!magic}, {!version}); {!manifest}
    renders a human-readable JSON summary written next to the binary by
    {!save}.

    Every stored field is a plain {!Codec} value that no other field
    derives: the allocator is its nonzero refcounts, each TLB its entries
    in replacement order, and the kernel PRNG its one int64 cursor.

    Limitation: the optional I/D cache timing model is not serialized —
    {!checkpoint} and {!restore} reject machines with caches enabled. *)

val version : int
val magic : string

type trigger = { t_pid : int; t_eip : int; t_mode : string }
(** The detection event that motivated a forensic snapshot. *)

type t

val cycle : t -> int
(** Cycle counter at capture time. *)

val page_size : t -> int
val frame_count : t -> int
val frames_written : t -> int
val frames_sparse_skipped : t -> int
val meta : t -> (string * string) list
val find_meta : t -> string -> string option
val trigger : t -> trigger option
val proc_summaries : t -> (int * string * string) list
(** [(pid, name, state)] per process, pid order. *)

val checkpoint :
  ?meta:(string * string) list -> ?trigger:trigger -> Kernel.Os.t -> t
(** Deep-copy the machine. Safe at any point where no instruction is
    mid-execution; for bit-exact replay, capture at a scheduler-loop
    boundary (which is where {!Kernel.Os.run} with bounded fuel stops and
    where {!Ring} hooks fire). [meta] carries free-form provenance (e.g.
    scenario name) or a {!Codec} blob (lib/inject and lib/prof state)
    into the binary and the manifest. Copies only frames that
    were written; a never-written frame costs one pointer compare.
    @raise Invalid_argument if the machine has the cache model enabled. *)

val compatible : Kernel.Os.t -> t -> (unit, string) result
(** [Ok ()] when the machine has the snapshot's page size, frame count,
    protection name and cost parameters (in practice: a machine built by
    the same scenario constructor); otherwise the first mismatch. *)

val restore : Kernel.Os.t -> t -> unit
(** Overwrite a {!compatible} live machine with the snapshot state in place.
    Pages are copied and zeroed only where the snapshot or the machine
    holds written frames; what stays proportional to the frame count is
    word-sized (one check per frame, the allocator's bitmap and refcounts).
    @raise Invalid_argument on configuration mismatch.
    @raise Codec.Corrupt when a decoded value is out of range (frame
    indices, order and lengths; refcount frames, order and counts; a
    register or trace array; a TLB state that does not fit its TLB),
    before the machine is touched; no other exception escapes for a
    compatible machine. *)

val encode : t -> string
val decode : string -> t
(** @raise Codec.Corrupt on truncation, bad magic, an unknown version or
    any other malformed input; no other exception escapes. *)

val manifest : t -> Obs.Json.t
(** A metadata value of printable ASCII shows verbatim; any other (a
    {!Codec} blob) as [{"bytes": n}]. *)

val save : ?obs:Obs.t -> file:string -> t -> int
(** Write [file] (binary) plus [file].manifest.json; returns the binary
    size in bytes. Bumps [snap.bytes_written] when [obs] is enabled. *)

val load : string -> t
(** @raise Codec.Corrupt, [Sys_error]. *)
