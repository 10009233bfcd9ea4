(** User-mode CPU interpreter.

    The kernel is not guest code: it runs as host (OCaml) functions invoked
    when [step] reports a fault or a syscall, mirroring the paper's setup
    where the protection mechanism lives entirely in the OS's page-fault and
    debug-interrupt handlers. *)

type regs = {
  gpr : int array;  (** eight GPRs, indexed per {!Isa.Reg.to_int} *)
  mutable eip : int;
  mutable zf : bool;
  mutable sf : bool;
  mutable tf : bool;  (** trap flag: single-step mode (EFLAGS.TF) *)
}

val create_regs : unit -> regs
val copy_regs : regs -> regs
val get : regs -> Isa.Reg.t -> int
val set : regs -> Isa.Reg.t -> int -> unit

type event =
  | Retired  (** instruction completed normally *)
  | Syscall of int  (** [int 0x80] retired; argument is EAX *)

type ctrl_kind = Exec_env.ctrl_kind =
  | Call_direct  (** [call rel] *)
  | Call_indirect  (** [call reg] *)
  | Return  (** [ret] *)
  | Jump_indirect  (** [jmp reg] *)

val ctrl_kind_name : ctrl_kind -> string

type fault =
  | Page of Mmu.fault
  | Invalid_opcode of { eip : int; opcode : int }
  | General_protection of string

val pp_fault : Format.formatter -> fault -> unit

type step = {
  outcome : (event, fault) result;
  debug_trap : bool;
      (** true when the trap flag was set when the instruction started and
          the instruction retired: a debug interrupt (#DB) must be delivered
          — the hook Algorithm 2 uses to re-restrict the PTE after an
          ITLB load. A faulting instruction raises no debug trap. *)
}

val step :
  ?ctrl:(kind:ctrl_kind -> site:int -> target:int -> ret:int -> bool) ->
  Mmu.t ->
  regs ->
  step
(** Execute one instruction at [regs.eip]. Register state is committed only
    if every memory access succeeds, so faulting instructions can be
    restarted.

    [ctrl] is the control-transfer monitor hook (a CFI defense): it is
    consulted on every [call]/[call reg]/[ret]/[jmp reg] with the site
    (address of the transfer instruction), the proposed target, and the
    fall-through address [ret] (the return address a call pushes). It runs
    after the instruction's memory accesses and before the new eip commits;
    returning [false] turns the transfer into a #GP. When [ctrl] is absent
    the step loop is unchanged and allocation-free. *)

type block_result = {
  attempts : int;
      (** instructions attempted (retired plus the trapping one, if any) —
          the scheduler's quantum/fuel currency, one per [step] the
          per-instruction path would have taken *)
  retired : int;
      (** plainly retired instructions: their cycles are already charged,
          but the caller must flush the batched counters — add [retired]
          to [Cost.insns] and to the retire-rate metric *)
  pending : step option;
      (** the step that ended the run (syscall, fault, or a trap-flag
          retire), still to be handed to the kernel's trap dispatch;
          [None] = budget ran out *)
}

val run_block : Exec_env.t -> Mmu.t -> regs -> max_insns:int -> tick_limit:int -> block_result
(** The one dispatch loop: execute instructions until one traps,
    [max_insns] have been attempted, or [Cost.cycles] reaches [tick_limit]
    (checked before every instruction, where the scheduler's timer would
    fire). Retired instructions charge their cycles inline and fire
    [env.retire].

    The path is chosen once, at entry. With [env.cache] installed, the trap
    flag clear, no TLB integrity guard and ECC off, it replays decoded
    basic blocks from the {!Bbcache}. Within one call the ITLB is
    immutable apart from fetch accounting (flushes, [invlpg], CR3 reloads
    and ticks happen between calls), so a real translation runs only for
    the call's first instruction and after a transfer to another page —
    which is also where a remap takes effect. With no sampling hook and no
    icache, every other instruction (mid-block, or a same-page successor
    block) folds all its byte fetches into ITLB hit counts; with either,
    every byte replays its TLB/icache/sampling effects. Otherwise it
    runs the exact loop, byte-at-a-time through the same decoder as
    {!step}. Both paths are bit-identical to iterated {!step}. Under the
    trap flag the run stops after one instruction: a retired one comes back
    uncharged in [pending] with [debug_trap = true], for the kernel to
    charge and then serve the #DB. *)

val mask32 : int -> int
val sign32 : int -> int
