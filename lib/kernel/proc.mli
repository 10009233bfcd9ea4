(** Guest processes: registers, address space, file descriptors, scheduler
    state, and the per-process bookkeeping the split-memory patch keeps in
    the OS process table (the pending faulting address passed from the
    page-fault handler to the debug-interrupt handler, §5.2). *)

type signal = Sigsegv | Sigill | Sigkill | Sigpipe | Sigbus

val signal_name : signal -> string

type exit_status = Exited of int | Killed of signal

val status_string : exit_status -> string

type wait_cond =
  | Read_fd of int
  | Write_fd of int
  | Child of int
  | Sleep of int
      (** absolute wake-up deadline on the machine's cycle counter *)
type state = Runnable | Blocked of wait_cond | Zombie of exit_status

val blocked_read : int -> state
val blocked_write : int -> state
(** [Blocked (Read_fd fd)] and [Blocked (Write_fd fd)], shared for small
    fds, so blocking on a pipe allocates nothing. *)

type fd_obj = Read_end of Pipe.t | Write_end of Pipe.t

type t = {
  pid : int;
  name : string;
  aspace : Aspace.t;
  regs : Hw.Cpu.regs;
  fds : (int, fd_obj) Hashtbl.t;
  console_in : Pipe.t;  (** initially fd 0 — where exploit drivers inject *)
  console_out : Pipe.t;  (** initially fd 1 *)
  mutable state : state;
  mutable in_runq : bool;
      (** queued in the machine's run queue — lets [enqueue] never
          double-queue and [dequeue_runnable] skip stale-pid churn *)
  mutable p_insns : int;
      (** instructions retired by this process (maintained by the
          scheduler; not serialized — resets to 0 on snapshot restore) *)
  mutable next_fd : int;
  mutable pending_fault_addr : int;
      (** set by Algorithm 1's code branch; consumed by Algorithm 2; [-1]
          when none is pending *)
  mutable sebek_active : bool;  (** post-detection syscall tracing enabled *)
  mutable parent : int option;
  mutable detections : int;  (** injection detections against this process *)
  mutable recovery_handler : int option;
      (** attack-recovery callback registered via the sigrecover syscall
          (the paper's proposed recovery response mode, §4.5) *)
  trail : Hw.Exec_env.trail;
      (** ring of the last 32 retired EIPs. The scheduler arms it as
          [Exec_env.trail] each quantum, and {!Hw.Cpu.run_block} writes
          it. *)
  mutable protected_ : bool;
      (** per-process opt-out (paper §3.3.1: a process that needs a plain
          von Neumann view — e.g. self-modifying code — simply gets one
          pagetable view and no splitting) *)
}

val create : pid:int -> name:string -> aspace:Aspace.t -> t
val find_fd : t -> int -> fd_obj
(** The object behind an fd; raises [Not_found] for a closed fd. No
    [option] box: the syscall and wake paths' allocation-free lookup. *)

val install_fd : t -> fd_obj -> int
val replace_fd : t -> int -> fd_obj -> unit
val close_fd : t -> int -> bool
val close_all_fds : t -> unit
val is_runnable : t -> bool
val is_zombie : t -> bool
val pp_state : Format.formatter -> state -> unit

val trace_trail : t -> int list
(** The last executed instruction addresses, oldest first — forensics mode
    dumps this as the control-flow trail into the attack. *)
