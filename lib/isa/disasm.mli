(** Disassembly helpers, used by the forensics response mode to render
    captured shellcode. *)

val region :
  ?max_insns:int -> string -> pos:int -> len:int -> (int * (Insn.t, Decode.error) result) list
(** Linear-sweep disassembly of a byte region; undecodable bytes advance by
    one byte and are reported as errors. Offsets are relative to the string. *)

val to_string : ?base:int -> ?max_insns:int -> string -> pos:int -> len:int -> string
(** Render a region as one line per instruction, addresses biased by [base]. *)

val hex_dump : ?width:int -> string -> pos:int -> len:int -> string
(** Classic hex dump of a region (used for shellcode logs). *)
