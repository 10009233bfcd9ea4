(** Hash tables over non-negative int keys, for the block cache:
    [Hashtbl] with monomorphic equality and a cheap hash. *)

include Hashtbl.S with type key = int
