(** Packed two-level x86-style pagetables in simulated physical memory.

    The kernel proper uses object-model PTEs ({!Pte}); this module is the
    fidelity study showing the split-memory patch fits real 32-bit x86
    structures: the split marker is an available PTE bit (§5.1), the two
    copies are side-by-side physical frames found by arithmetic, and every
    Algorithm-1 PTE manipulation is a single 32-bit store. The
    [test/test_hw_pagetable.ml] suite drives the MMU's hardware walker
    through these tables and replays the full desynchronization sequence
    against them. *)

type t

val create : Hw.Phys.t -> Frame_alloc.t -> t
(** Allocates the page-directory frame. *)

val map : t -> vpn:int -> frame:int -> writable:bool -> user:bool -> ?nx:bool -> unit -> unit
val unmap : t -> int -> unit
val entry : t -> int -> int option
(** Raw 32-bit PTE, if present. *)

val split_page : t -> int -> int * int
(** The paper's split recipe on packed entries: side-by-side pair
    allocation, split bit, supervisor restriction. Returns
    [(code_frame, data_frame)]; idempotent. *)

val point_at_code : t -> int -> unit
val point_at_data : t -> int -> unit
val restrict : t -> int -> unit
val unrestrict : t -> int -> unit

val walk : t -> int -> int
(** The hardware walker (feed to {!Hw.Mmu.load_cr3}): the raw entry, a
    PTE word in {!Hw.Tlb.word}'s layout, or [-1] when not present. *)

val free : t -> unit
(** Release every mapped frame (split pairs via frame arithmetic), the
    page tables, and the directory. *)

(** Entry-format accessors (exposed for tests). *)

val encode :
  frame:int -> writable:bool -> user:bool -> nx:bool -> split:bool -> data_sel:bool -> int

val frame_of : int -> int
val present : int -> bool
val writable : int -> bool
val user : int -> bool
val nx : int -> bool
val split : int -> bool
val data_selected : int -> bool
