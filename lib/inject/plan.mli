(** Declarative fault-injection plans.

    A plan is a pure value carrying everything a campaign run needs to be
    reproduced bit-for-bit: the scenario to run, the injector seed, the
    fault classes to draw from, the trigger window and the fault budget.
    {!codec} encodes it, so an interrupted campaign's plan rides inside
    snapshot metadata. *)

type fault_class =
  | Tlb_wrong_pfn  (** flip physical-frame bits of a live TLB entry *)
  | Tlb_wrong_perms  (** flip user/writable/nx of a live TLB entry *)
  | Tlb_phantom
      (** plant a stale entry that should have been invalidated (and
          swallow the next [invlpg] — the missed-invalidation fault) *)
  | Pte_flip  (** flip present/writable/user/nx in the live pagetable *)
  | Frame_flip_code  (** flip a bit in a code-copy physical frame *)
  | Frame_flip_data  (** flip a bit in a data-copy physical frame *)
  | Alloc_exhaustion  (** make the next frame allocations fail transiently *)
  | Syscall_transient  (** fail a syscall dispatch once (kernel restarts it) *)

val all_classes : fault_class list
val class_name : fault_class -> string
val class_of_name : string -> fault_class option
val classes_string : fault_class list -> string
(** Comma-joined {!class_name}s. *)

type trigger = {
  at_cycle : int;  (** first eligible scheduler boundary at/after this cycle *)
  every : int;  (** min cycles between injections (0 = single shot) *)
  pid : int option;  (** only inject while this pid was last running *)
  vpn : int option;  (** restrict TLB/PTE/frame targets to this vpn *)
}

type t = {
  label : string;
  scenario : string;  (** a {!Snap.Scenario} name *)
  seed : int;
  classes : fault_class list;
  trigger : trigger;
  budget : int;  (** max faults injected over the whole run *)
  fuel : int;
}

val make :
  ?label:string ->
  ?scenario:string ->
  ?seed:int ->
  ?classes:fault_class list ->
  ?at_cycle:int ->
  ?every:int ->
  ?pid:int ->
  ?vpn:int ->
  ?budget:int ->
  ?fuel:int ->
  unit ->
  t
(** Defaults: scenario ["benign"], seed 7, all classes, first fire at cycle
    2000 then every 600 cycles, budget 4, fuel 1M. The default label is
    ["<class>@<scenario>"] (or ["mixed@<scenario>"]). *)

val class_codec : fault_class Snap.Codec.t

val codec : t Snap.Codec.t
(** A plan's snapshot-metadata form. Decoding rejects what {!make} rejects
    (an empty class list, a negative budget) with {!Snap.Codec.Corrupt}. *)
