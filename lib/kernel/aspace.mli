(** Per-process address space: the pagetable plus the region map that
    drives demand paging. *)

type source =
  | Zero  (** anonymous zero-fill (bss, heap, stack, mmap) *)
  | Image_bytes of { base : int; bytes : string }  (** file-backed segment *)

type region = {
  lo : int;  (** first vpn (inclusive) *)
  mutable hi : int;  (** last vpn (exclusive); mutable for brk/mprotect *)
  kind : Pte.kind;
  mutable writable : bool;
  mutable execable : bool;
  source : source;
  mutable share : string option;
      (** backing-segment content digest when read-only pages of this
          region may join the shared-frame registry (loader COW). Derived
          perf-only state — never serialized; recomputed from the region
          source by [Machine.rebuild_shares] after a restore. *)
}

type t = {
  page_size : int;
  ptes : (int, Pte.t) Hashtbl.t;
  mutable regions : region list;
  mutable brk : int;
  mutable mmap_cursor : int;
  walker : int -> int;
      (** The hardware page-walk view of this address space, a PTE word
          per vpn ({!Pte.word}; feed to {!Hw.Mmu.load_cr3}). The closure
          is built once, by {!create}, so loading it on a context switch
          allocates nothing, and a walk allocates nothing either. *)
  code_walker : int -> int;
      (** §3.3.1 dual-pagetable hardware: the CR3-C view — split pages
          resolve to their code copy, unrestricted. Built once, like
          {!walker}. *)
  data_walker : int -> int;  (** The CR3-D view — split pages resolve to their data copy. *)
}

val create : page_size:int -> t
val page_size : t -> int
val add_region : t -> region -> unit
val regions : t -> region list
val find_region : t -> int -> region option

val find_region_exn : t -> int -> region
(** {!find_region} without the [option] box: raises [Not_found] when no
    region holds [vpn]. CFI's allocation-free lookup. *)

val pte : t -> int -> Pte.t option

val find_pte : t -> int -> Pte.t
(** {!pte} without the [option] box: raises [Not_found] when [vpn] is
    unmapped. The fault and syscall paths' allocation-free lookup. *)

val set_pte : t -> Pte.t -> unit
val iter_ptes : t -> (Pte.t -> unit) -> unit
val mapped_count : t -> int

val page_content : t -> region -> int -> string
(** Initial contents for demand-mapping [vpn] of [region]. *)

val blit_page_content : t -> region -> int -> Bytes.t -> unit
(** Allocation-free variant: write the initial contents of [vpn] into the
    first [page_size] bytes of a caller-owned scratch buffer. *)
