(** The scheduler layer: round-robin run loop, quantum accounting, timer
    ticks and fuel handling, extracted from the old kernel monolith. Each
    loop iteration fires the timer, runs {!Hw.Cpu.run_block} up to the
    next tick or the end of the quantum, flushes the batched retire
    counters, and hands the trap that ended the run (if any) to
    {!Trap.deliver_trap}. *)

type stop_reason = All_exited | All_blocked | Fuel_exhausted

val ready : Machine.t -> Proc.t -> Proc.wait_cond -> bool
(** Does the wait condition hold right now? The one definition of
    "ready" that {!wake} rechecks. *)

val wake : Machine.t -> unit
(** Event-driven wake: drain [Machine.pending_wakeups], recheck the
    candidates in ascending pid order, requeue the ready ones and
    re-register the rest. O(woken). It never loses a wakeup: after each
    call no [Blocked] process satisfies {!ready}, so it requeues exactly
    the processes a scan of every blocked process would, in the same pid
    order. The determinism harness (test/test_equiv.ml) checks this at
    every scheduler boundary of its baseline runs. *)

val switch_to : Machine.t -> Proc.t -> unit
(** Context switch if [p] was not already running: charge it, load the
    process pagetables (flushing the TLBs). *)

val run : ?fuel:int -> ?table:Syscalls.table -> Machine.t -> stop_reason
(** Schedule until every process exited, everything blocked, or fuel ran
    out. [table] (default {!Syscalls.default}) is the syscall table traps
    dispatch through. Each loop boundary expires sleepers, runs {!wake},
    then fires the sched hook and the inject hook. *)

(** {2 Snapshot support} *)

type state = {
  s_runq : int list;  (** run queue, front first *)
  s_rng : int64;  (** the kernel PRNG's cursor *)
  s_last_running : int option;
  s_next_pid : int;
  s_next_tick : int;
  s_ticks : int;
  s_lib_cursor : int;
}

val state : Machine.t -> state
(** Deep copy of scheduler/loader bookkeeping. *)

val restore : Machine.t -> state -> unit
