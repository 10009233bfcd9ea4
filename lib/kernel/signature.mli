(** Binary signature stand-in (models DigSig / NetBSD verified-exec, which
    the paper defers library validation to). Not cryptographically secure —
    it exists so the loader's accept/reject logic is real and testable. *)

val sign : string list -> int
val verify : string list -> int -> bool
