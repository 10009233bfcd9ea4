(** Executable images — the simulator's stand-in for ELF binaries.

    An image is a set of signed segments laid out at the canonical
    {!Layout} addresses, plus an entry point and a BSS size. {!build}
    assembles multi-segment guest programs with cross-segment label
    resolution (a two-pass fixpoint: label addresses never change sizes). *)

type seg_kind = Code | Rodata | Data | Mixed | Lib

val seg_kind_name : seg_kind -> string

type segment = { base : int; bytes : string; kind : seg_kind; writable : bool }

type t = {
  name : string;
  segments : segment list;
  entry : int;
  bss_size : int;
  signature : int;
  labels : (string, int) Hashtbl.t;  (** all labels, including specials *)
}

exception Unknown_label of string

type builder = lbl:(string -> int) -> Isa.Asm.program
(** A program parameterized over a label resolver. The resolver knows every
    label of every segment plus the specials ["bss"], ["heap"],
    ["stack_top"], ["initial_esp"]. *)

val build :
  name:string ->
  ?rodata:Isa.Asm.program ->
  ?lib:Isa.Asm.program ->
  ?bss_size:int ->
  ?data:builder ->
  ?mixed:builder ->
  code:builder ->
  entry:string ->
  unit ->
  t
(** Assemble and seal an image. [code] loads at {!Layout.code_base},
    [rodata]/[lib]/[data]/[mixed] at their canonical bases. [mixed] is a
    writable segment that may also contain code — the "mixed code and data
    page" case of the paper's Fig. 1b.
    @raise Unknown_label on a reference to an undefined label. *)

val seal : t -> t
(** Recompute the signature (what a trusted build system does). *)

val verify : t -> bool
(** Check the signature — the loader's validation step (paper §4.3). *)

val tamper : t -> t
(** Flip a byte of the first segment without resealing (for tests). *)

val find_segment : t -> seg_kind -> segment option

val label : t -> string -> int
(** Address of a label. @raise Unknown_label. *)
