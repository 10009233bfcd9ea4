type params = {
  insn : int;
  tlb_walk : int;
  trap : int;
  split_pf_service : int;
  single_step_service : int;
  syscall : int;
  ctx_switch : int;
  fault_delivery : int;
  io_byte : int;
  timer_tick_cycles : int;
  daemon_period : int;
  fork_base : int;
  fork_per_page : int;
  soft_tlb_fill : int;
  icache_miss : int;
  dcache_miss : int;
  smc_penalty : int;
}

let default_params =
  {
    insn = 1;
    tlb_walk = 20;
    trap = 380;
    split_pf_service = 240;
    single_step_service = 330;
    syscall = 280;
    ctx_switch = 520;
    fault_delivery = 600;
    io_byte = 3;
    timer_tick_cycles = 40_000;
    daemon_period = 4;
    fork_base = 8000;
    fork_per_page = 200;
    soft_tlb_fill = 90;
    icache_miss = 8;
    dcache_miss = 8;
    smc_penalty = 420;
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

let create () =
  {
    params = default_params;
    cycles = 0;
    insns = 0;
    traps = 0;
    split_faults = 0;
    single_steps = 0;
    syscalls = 0;
    ctx_switches = 0;
  }

let charge t n = t.cycles <- t.cycles + n
let charge_insn t =
  t.cycles <- t.cycles + t.params.insn;
  t.insns <- t.insns + 1

let charge_walk t = charge t t.params.tlb_walk

let charge_trap t =
  t.traps <- t.traps + 1;
  charge t t.params.trap

let charge_split_pf t =
  t.split_faults <- t.split_faults + 1;
  charge t t.params.split_pf_service

let charge_single_step t =
  t.single_steps <- t.single_steps + 1;
  charge t t.params.single_step_service

let charge_syscall t =
  t.syscalls <- t.syscalls + 1;
  charge t t.params.syscall

let charge_ctx_switch t =
  t.ctx_switches <- t.ctx_switches + 1;
  charge t t.params.ctx_switch

let pp ppf t =
  Fmt.pf ppf
    "cycles=%d insns=%d traps=%d split_faults=%d single_steps=%d syscalls=%d ctxsw=%d"
    t.cycles t.insns t.traps t.split_faults t.single_steps t.syscalls t.ctx_switches
