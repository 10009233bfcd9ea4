(** General-purpose registers of the simulated 32-bit machine.

    The register file mirrors the x86 order so that guest programs and
    shellcode read naturally: [ESP] is the stack pointer, [EBP] the frame
    pointer, [EAX] the syscall number / return-value register. *)

type t = EAX | ECX | EDX | EBX | ESP | EBP | ESI | EDI

val to_int : t -> int
(** Encoding index, 0..7, in x86 order. *)

val of_int : int -> t option
(** Inverse of {!to_int}; [None] for values outside 0..7. *)

val name : t -> string
(** Lower-case assembly name, e.g. ["eax"]. *)

val all : t list
(** All eight registers in encoding order. *)

val pp : Format.formatter -> t -> unit
