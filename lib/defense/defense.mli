(** The protection configurations compared throughout the evaluation. *)

module Nx_bit = Nx_bit
module Cfi = Cfi

type t =
  | Unprotected
  | Unprotected_soft_tlb
      (** stock kernel on a software-managed-TLB machine (ablation baseline) *)
  | Nx  (** execute-disable bit alone *)
  | Split of {
      policy : Split_memory.Policy.t;
      response : Split_memory.Response.t;
      nx : bool;
      mechanism : Split_memory.mechanism;
    }
  | Cfi_over of { underlying : t; shadow_stack : bool; coarse : bool }
      (** shadow stack + coarse CFI layered over any other defense *)

val unprotected : t
val unprotected_soft_tlb : t
val nx : t

val split_standalone : t
(** Split every page, break on detection — the paper's stand-alone mode,
    used for the performance figures. *)

val split_mixed_plus_nx : t
(** NX for normal pages, splitting only for mixed pages (§4.2.1). *)

val split_fraction : int -> t
(** Split the given percentage of pages, NX for the rest (Fig. 9). *)

val split_soft_tlb : t
(** The §4.7 port: split memory on a software-managed-TLB machine. *)

val split_dual_cr3 : t
(** The §3.3.1 hardware modification: dual pagetable registers. *)

val split_with :
  ?policy:Split_memory.Policy.t ->
  ?response:Split_memory.Response.t ->
  ?nx:bool ->
  ?mechanism:Split_memory.mechanism ->
  unit ->
  t

val cfi : t
(** Shadow stack + coarse CFI alone (over the stock kernel). *)

val split_plus_cfi : t
(** The composition the evaluation recommends: split memory against code
    injection plus CFI against code reuse. *)

val to_protection : t -> Kernel.Protection.t

val name : t -> string
