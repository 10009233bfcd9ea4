(** Which pages get the split treatment (paper §4.2.1).

    - {!All_pages}: stand-alone mode for hardware without an
      execute-disable bit — every page of the process is split.
    - {!Mixed_only}: deployment alongside the NX bit — only pages holding
      both code and data (which NX cannot protect) are split.
    - {!Fraction}: split a fixed percentage of pages, chosen
      deterministically by vpn — the configuration behind the paper's
      Fig. 9 sweep. *)

type t = All_pages | Mixed_only | Fraction of int  (** percentage, 0–100 *)

val should_split : t -> Kernel.Aspace.region -> vpn:int -> bool
val name : t -> string
