(** Cycle-accounting model.

    The paper reports relative slowdowns whose sources are kernel traps and
    TLB traffic; the simulator charges those events against a single cycle
    counter. Constants approximate the relative magnitudes measured on the
    paper's Pentium III testbed: a trap into the kernel is tens of times the
    cost of an instruction, a split-memory page-fault service is comparable
    to a trap, the single-step ITLB load costs a second interrupt, and a
    context switch is the most expensive event (it also flushes both TLBs,
    whose refill cost is charged where the misses occur). *)

type params = {
  insn : int;  (** base cost per retired instruction *)
  tlb_walk : int;  (** hardware pagetable walk on a TLB miss *)
  trap : int;  (** kernel trap entry + exit (page fault, #UD, #DB) *)
  split_pf_service : int;  (** Algorithm 1 software service *)
  single_step_service : int;  (** Algorithm 2: extra debug interrupt *)
  syscall : int;  (** syscall dispatch *)
  ctx_switch : int;  (** scheduler context switch (TLB flush separate) *)
  fault_delivery : int;  (** signal delivery / process teardown *)
  io_byte : int;  (** wire/DMA cycles per byte written through a pipe *)
  timer_tick_cycles : int;  (** timer-interrupt period; 0 disables ticks *)
  daemon_period : int;
      (** every Nth tick a background daemon runs: a real context switch,
          so both TLBs are flushed — the background activity a loaded
          Linux box always has *)
  fork_base : int;  (** fixed cost of fork (task structures) *)
  fork_per_page : int;  (** pagetable-copy cost per mapped page *)
  soft_tlb_fill : int;
      (** software-managed TLB (SPARC-style, paper §4.7): cost of the
          lightweight TLB-miss trap plus the fill instruction — far below a
          full page-fault trap *)
  icache_miss : int;  (** refill from L2 (cache model enabled only) *)
  dcache_miss : int;
  smc_penalty : int;
      (** store hitting an icache line: coherency invalidation + pipeline
          flush — the cost behind the paper's §4.2.4 observation *)
}

type t = {
  params : params;
  mutable cycles : int;
  mutable insns : int;
  mutable traps : int;
  mutable split_faults : int;
  mutable single_steps : int;
  mutable syscalls : int;
  mutable ctx_switches : int;
}

val create : unit -> t
val charge : t -> int -> unit
val charge_insn : t -> unit
val charge_walk : t -> unit
val charge_trap : t -> unit
val charge_split_pf : t -> unit
val charge_single_step : t -> unit
val charge_syscall : t -> unit
val charge_ctx_switch : t -> unit
val pp : Format.formatter -> t -> unit
