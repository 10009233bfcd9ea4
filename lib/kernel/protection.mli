(** The kernel's protection-mechanism interface.

    The paper implements split memory as a patch touching five kernel
    subsystems (loader, page-fault handler, debug-interrupt handler, memory
    management, signal handling). This interface is the seam those patches
    plug into: the split-memory module and the NX-bit baseline are both
    implementations of {!t}, and the stock kernel is {!none}.

    The TLB-fill hook speaks the hardware's one TLB entry format: it
    returns the PTE word ({!Hw.Tlb.word}'s layout) the OS miss handler
    loads, or a negative word to refuse the fill — the page walker's own
    convention for "no entry". *)

type ctx = {
  phys : Hw.Phys.t;
  alloc : Frame_alloc.t;
  mmu : Hw.Mmu.t;
  cost : Hw.Cost.t;
  log : Event_log.t;
  obs : Obs.t;  (** trace/metrics sink ({!Obs.null} when disabled) *)
}

type fault_result =
  | Handled  (** fault serviced; restart the faulting instruction *)
  | Not_ours  (** pass on: the kernel delivers SIGSEGV *)

type opcode_verdict =
  | Benign  (** a genuine illegal instruction: deliver SIGILL *)
  | Resume  (** handled (e.g. observe mode locked the page); re-execute *)
  | Kill_process of string  (** detected attack, break mode: terminate *)

type t = {
  name : string;
  nx_hardware : bool;
      (** requires/enables execute-disable enforcement in the MMU *)
  dual_pagetables : bool;
      (** requires the §3.3.1 hardware modification: two pagetable
          registers, one walked on fetches and one on data accesses *)
  soft_tlb : bool;
      (** requires a software-managed TLB (§4.7): TLB misses trap to the
          OS, whose miss handler loads the entry ({!on_tlb_fill}), instead
          of the x86 hardware page walker *)
  on_page_mapped : ctx -> Proc.t -> Aspace.region -> Pte.t -> unit;
      (** called by loader and demand pager right after a fresh mapping;
          may split the page or set its NX bit *)
  on_protection_fault : ctx -> Proc.t -> Hw.Mmu.fault -> fault_result;
      (** permission page fault the stock kernel cannot explain (COW is
          already handled); split memory services its supervisor faults
          here (Algorithm 1) *)
  on_debug_trap : ctx -> Proc.t -> bool;
      (** single-step interrupt; true = consumed (Algorithm 2) *)
  on_invalid_opcode : ctx -> Proc.t -> eip:int -> opcode:int -> opcode_verdict;
      (** invalid-opcode fault — where split memory detects execution of
          injected code and applies the response mode (Algorithm 3) *)
  on_tlb_fill : ctx -> Proc.t -> Hw.Mmu.fault -> Pte.t -> int;
      (** software-managed-TLB machines only (paper §4.7): the OS's
          TLB-miss handler asks the protection for the word to load, and
          kills the process on a negative one; split memory routes fetches
          to the code copy and data accesses to the data copy here, with
          no single-stepping or walk tricks *)
  ctrl_monitor :
    (ctx ->
    Proc.t ->
    kind:Hw.Cpu.ctrl_kind ->
    site:int ->
    target:int ->
    ret:int ->
    bool)
    option;
      (** control-transfer monitor (a CFI defense, e.g. a shadow stack):
          consulted by the scheduler's step loop on every call / indirect
          call / ret / indirect jump of a protected process, with the
          transfer site, proposed target, and fall-through address. [false]
          denies the transfer — the CPU raises #GP and the kernel kills the
          process. [None] (every non-CFI defense) leaves the step loop
          untouched. *)
}

val none : t
(** The unprotected stock kernel. Its TLB-fill hook loads {!fill_word}. *)

val fill_word : Pte.t -> int
(** The word of the PTE's fields, present bit set whether or not the PTE
    is present: what the stock miss handler loads. Unlike {!Pte.word} it
    is never negative, so a PTE whose present bit was flipped is still
    loaded from its fields. *)
