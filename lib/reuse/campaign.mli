(** The code-reuse campaign and the defense x attack matrix.

    Three reuse attacks retarget the victim's copy bug without injecting
    code; crossed with the classic injection representatives against
    every defense configuration, they locate the exact boundary of split
    memory (paper §7) and show CFI closing it. *)

type attack = Rop_chain | Ret2libtext | Fptr_clobber

val attacks : attack list
val attack_name : attack -> string

val scan : ?max_insns:int -> unit -> Gadget.t list
(** Scan the victim image for gadgets. *)

val chain_for : Kernel.Image.t -> Chain.t
(** The execve chain built from the image's own gadgets. *)

val packet : Kernel.Image.t -> attack -> string
(** The full stdin bytes (selector + overflow + newline) for an attack
    on [Victim.image]. *)

val run : ?defense:Defense.t -> attack -> Attack.Runner.outcome

val benign : ?defense:Defense.t -> string -> Attack.Runner.outcome * string
(** [benign sel] runs a harmless session down the [sel] path (see
    {!Victim.sel_stack} / {!Victim.sel_fptr}); returns outcome and
    stdout. *)

(** {2 The matrix} *)

type row = Injection of Attack.Wilander.technique | Reuse of attack

val rows : (string * row) list
val defenses : (string * Defense.t) list

type cell = {
  defense : string;
  attack : string;
  expected : bool;
  result : (Attack.Runner.outcome, string) result;
}

val matrix : ?jobs:int -> unit -> cell list
(** Run the full grid on the fleet; submission-order results make the
    output identical for every [jobs]. *)

val check : cell list -> bool

val render : Format.formatter -> cell list -> unit
