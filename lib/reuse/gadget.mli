(** Gadget scanner: every-byte-offset decode walk over an image's
    executable segments, indexing the short sequences that end in an
    attacker-steerable transfer (ret / jmp reg / call reg) — including the
    unintended sequences hiding inside instruction immediates, which is
    what makes code reuse possible without writing a single code byte. *)

type terminator = Ret | Jmp_reg of Isa.Reg.t | Call_reg of Isa.Reg.t

type t = {
  addr : int;  (** virtual address of the first instruction *)
  insns : Isa.Insn.t list;  (** the sequence, terminator included *)
  terminator : terminator;
}

val size : t -> int
(** Encoded length in bytes. *)

val pp : Format.formatter -> t -> unit

val at : ?max_insns:int -> base:int -> string -> int -> t option
(** [at ~base bytes pos] walks forward from byte offset [pos], returning
    the gadget found there: at most [max_insns] (default 4) decoded
    instructions reaching a terminator. Total over any offset — decode
    failures (including [Truncated] at the segment boundary) simply yield
    [None]. *)

val scan_image : ?max_insns:int -> Kernel.Image.t -> t list
(** Scan all executable (code/lib/mixed) segments. *)

val pop_ret : t list -> Isa.Reg.t -> t option
(** First [pop r; ret] gadget for the given register. *)

val syscall_ret : t list -> t option
(** First [int 0x80; ret] gadget. *)
