(** The trap layer: the dispatch pipeline routing each {!Hw.Cpu.trap}
    class through the {!Protection.t} hooks.

    This boundary is where the paper's defense lives: Algorithm 1 runs in
    the page-fault handler, Algorithm 2 in the debug-interrupt handler,
    Algorithm 3 in the invalid-opcode handler (§5). The pipeline owns the
    cost-charging discipline for every class and the per-class
    observability instruments; {!Sched} calls {!deliver_trap} once per
    trap that ends a dispatch call. *)

val class_name : Hw.Cpu.trap -> string
(** The trap's label in the [traps.by_class] metric: ["syscall"],
    ["page_fault"], ["invalid_opcode"], ["general_protection"] or
    ["debug_trap"] (["none"] for [No_trap], which is never counted). *)

val deliver_trap : ?table:Syscalls.table -> Machine.t -> Proc.t -> Hw.Cpu.trap -> unit
(** Deliver the trap that ended a {!Hw.Cpu.run_block} call on this
    machine, read from the registers holding its payload (EAX, the MMU's
    fault register, {!Hw.Cpu.ud_eip}/{!Hw.Cpu.ud_opcode}). The
    primary trap goes first: a trap-flag retirement charges and counts;
    a trap is charged, routed to its handler and counted per class
    ([table], default {!Syscalls.default}, serves a [Sys]). The
    piggybacked #DB follows, only if the process is still runnable,
    mirroring x86 delivery order. [No_trap] does nothing. *)
