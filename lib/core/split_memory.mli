(** Split memory: a virtual Harvard architecture on von Neumann hardware.

    This is the paper's contribution, packaged — like the original — as a
    patch against the operating system: a {!Kernel.Protection.t} whose
    handlers implement

    - page splitting at map time ({!Splitter}, §4.2.2 / §5.1),
    - Algorithm 1, the split page-fault handler (§4.2.3–4.2.4 / §5.2),
    - Algorithm 2, the debug-interrupt handler (§5.3),
    - Algorithm 3 and the break / observe / forensics response modes
      (§4.5 / §5.5).

    A process protected this way can still be made to {e inject} code into
    its address space, but the injected bytes land on a page's data copy
    while the processor fetches instructions exclusively from the pristine
    code copy — the injected code is unaddressable at fetch time. *)

module Policy = Policy
module Response = Response
module Splitter = Splitter

type mechanism =
  | Tlb_desync
      (** the x86 implementation: supervisor PTEs + Algorithms 1 and 2 *)
  | Soft_tlb
      (** the §4.7 port to software-managed-TLB architectures (SPARC):
          the OS's TLB-miss handler loads the correct copy directly *)
  | Dual_cr3
      (** the §3.3.1 hardware modification: one pagetable register for
          fetches (CR3-C) and one for data (CR3-D); the OS just maintains
          two views and the protection costs nothing at runtime *)

val entry_consistent : access:Hw.Mmu.access -> Kernel.Pte.t option -> int -> bool
(** Defense-side desync audit, consumed by lib/inject's TLB guard: could
    this defense legitimately have loaded the cached PTE word for the
    given live PTE (None = the vpn is unmapped)? Split pages are
    deliberately desynced, so only frame routing is enforced (fetch →
    code copy, data → data copy); non-split pages must mirror the PTE
    exactly. [false] means the word is corrupted or stale and must be
    dropped and refilled. *)

type itlb_load =
  | Single_step  (** Algorithm 2: trap flag + debug interrupt (the shipped method) *)
  | Ret_gadget
      (** the discarded §4.2.4 alternative: plant and call a [ret] on the
          code copy; slower in practice because the stores invalidate
          icache lines and flush the pipeline *)

val protection :
  ?policy:Policy.t ->
  ?response:Response.t ->
  ?nx:bool ->
  ?mechanism:mechanism ->
  ?itlb_load:itlb_load ->
  unit ->
  Kernel.Protection.t
(** Build the split-memory OS patch.

    Defaults: split every page ({!Policy.All_pages}, the paper's
    stand-alone mode), [Break] response, no execute-disable hardware.
    With [~nx:true], pages the policy does not split are protected by the
    execute-disable bit instead — the combined deployment of §4.2.1 used
    for the Fig. 9 experiment. *)
