(** User-mode CPU interpreter.

    The kernel is not guest code: it runs as host (OCaml) functions invoked
    when {!run_block} reports a fault or a syscall, mirroring the paper's
    setup where the protection mechanism lives entirely in the OS's
    page-fault and debug-interrupt handlers. *)

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
(** The allocated form of a faulting trap, built only for the trace
    stream's #UD/#GP text; dispatch itself reports a {!trap}. *)

type trap =
  | No_trap
      (** the instruction retired; for a {!run_block} call, the budget or
          [tick_limit] was reached with nothing pending *)
  | Sys  (** [int 0x80] retired; the syscall number is in EAX *)
  | Pf  (** page fault: {!Mmu.pending_fault} holds it *)
  | Ud  (** #UD: {!ud_eip} and {!ud_opcode} read it *)
  | Gp  (** #GP (its reason goes to the trace stream) *)
  | Db
      (** an instruction retired under the trap flag, uncharged: the
          kernel charges it and then serves the #DB *)
(** How a {!run_block} call ended. Constant constructors: reporting a trap
    allocates nothing, and its payload stays in registers until the kernel
    asks for it. A [Sys] carries a #DB too when the trap flag is set. *)

val run_block : Exec_env.t -> Mmu.t -> regs -> max_insns:int -> tick_limit:int -> trap
(** The one dispatch loop: execute instructions until one traps,
    [max_insns] have been attempted, or [Cost.cycles] reaches [tick_limit]
    (checked before every instruction, where the scheduler's timer would
    fire). Retired instructions charge their cycles inline and write their
    eip into [env.trail]. On return, {!attempts} counts the instructions
    attempted (retired plus the trapping one, if any — the scheduler's
    quantum/fuel currency) and {!retired} the plainly retired ones,
    whose cycles are charged but whose [Cost.insns] and retire-rate
    counts the caller must flush.

    The path is chosen once, at entry. With [env.cache] installed, the trap
    flag clear, no TLB integrity guard ([env.tlb_guard]) and ECC off, it
    replays decoded basic blocks from the {!Bbcache}. Within one call the
    ITLB is immutable apart from fetch accounting (flushes, [invlpg], CR3
    reloads and ticks happen between calls), so a real translation runs
    only for the call's first instruction and after a transfer to another
    page — which is also where a remap takes effect. With no sampling hook
    and no icache, every other instruction (mid-block, or a same-page
    successor block) folds all its byte fetches into ITLB hit counts,
    summed as one pending (vpn, count) and paid with one {!Tlb.note_hits}
    before the next real translation and when the call returns, under FIFO
    and LRU alike. With a sampling hook or an icache, every byte replays
    its TLB/icache/sampling effects. A block end reaches the next block
    through {!Bbcache.follow}. Otherwise it runs the exact loop: one
    instruction per iteration, decoded byte-at-a-time. Both paths are
    bit-identical to iterated [run_block ~max_insns:1] on an environment
    with no cache. Under the trap flag the run stops after one
    instruction: a retired one ends the call as [Db].

    Neither path allocates per call or per retired instruction, except
    that the first call on an MMU builds the dispatch state it keeps in
    [env.cursor] (which also holds the counts and the #UD payload the
    readers below return); the exact path's decoder allocates the
    instruction it decodes, and so does the cached path's byte-at-a-time
    fallback for an undecodable or page-straddling instruction. *)

val attempts : Exec_env.t -> int
(** Instructions the last {!run_block} call on this environment attempted;
    0 before the first call. *)

val retired : Exec_env.t -> int
(** Instructions the last {!run_block} call plainly retired. *)

val ud_eip : Exec_env.t -> int
val ud_opcode : Exec_env.t -> int
(** The #UD that ended the last call, when it ended in [Ud]. *)

val mask32 : int -> int
val sign32 : int -> int
