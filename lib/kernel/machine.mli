(** The kernel's state layer: the machine record plus the memory/process
    services the other kernel layers ({!Syscalls}, {!Trap}, {!Sched})
    build on. {!Os} composes all of them behind the stable public facade —
    kernel clients should use {!Os}; this interface is for the kernel's
    own layers, for [lib/snap], and for tools that need to reach a
    specific layer directly.

    The record type is deliberately concrete: the layers above are part of
    the kernel and manipulate scheduler bookkeeping (run queue, tick
    state) in place. *)

exception Rejected_image of string
exception Efault

type library = { lib_base : int; code : string; lib_signature : int }

type syscall_outcome =
  | Returned of int  (** handler returned; payload is EAX, sign-extended *)
  | Blocked  (** the process blocked; the syscall will re-execute *)
  | Exited  (** the process terminated during the call *)

type syscall_trace = {
  sys_number : int;
  sys_name : string;
  sys_pid : int;
  sys_args : int * int * int;  (** ebx, ecx, edx at entry *)
  sys_outcome : syscall_outcome;
  sys_cycles : int;  (** service cycles, entry to return *)
}
(** One record per dispatched syscall, delivered to the probe's [syscall]
    slot (see {!Syscalls.dispatch} and simctl's [--strace]). *)

type probe = {
  mutable boundary : (unit -> unit) option;
      (** fired at every scheduler-loop boundary, after [Sched.wake] and
          before dispatch — the points where the machine is quiescent and a
          checkpoint is replay-exact (lib/snap's ring, the determinism
          harness's wake check) *)
  mutable inject : (unit -> unit) option;
      (** fired at the same boundaries, right after [boundary], so a
          checkpoint samples the pre-fault state (lib/inject) *)
  mutable switch : (Proc.t -> unit) option;
      (** fired in [Sched.switch_to] when the running process {e changes},
          with the incoming process — pid attribution for address sampling
          (lib/prof) *)
  mutable syscall : (syscall_trace -> unit) option;
      (** fired once per dispatched syscall, after its handler ran (simctl
          [--strace], lib/serve's latency clock) *)
  mutable squeeze : (Proc.t -> int -> bool) option;
      (** consulted with (process, syscall number) before each dispatch;
          [true] rewinds the guest so the syscall restarts instead (a
          transient kernel failure, ERESTART style; lib/inject). A squeezed
          syscall is not dispatched, so [syscall] does not see it *)
  mutable event : (Event_log.event -> unit) option;
      (** fired on every event appended to the machine's log, after it is
          appended (lib/snap's forensic capture) *)
}
(** The kernel half of a machine's hooks — the hardware half is
    {!Hw.Exec_env.t}. One optional slot per probe point, written directly
    by whoever attaches (e.g. [m.probe.boundary <- Some f]); writing a slot
    replaces its previous hook, and [None] detaches it. The probe is not
    part of a snapshot. *)

type hot = {
  h_retired : Obs.Metrics.counter;
  h_syscalls : Obs.Metrics.counter;
  h_faults : Obs.Metrics.counter;
  h_fault_cycles : Obs.Metrics.histogram;
  h_syscall_cycles : Obs.Metrics.histogram;
  h_faults_by_page : Obs.Metrics.labeled;
  h_faults_by_pid : Obs.Metrics.labeled;
  h_sys_by_name : Obs.Metrics.labeled;
  h_sys_by_pid : Obs.Metrics.labeled;
  h_traps_by_class : Obs.Metrics.labeled;
}
(** Pre-resolved metric instruments for the scheduler/trap hot paths
    ([None] on the machine when observability is disabled). *)

type t = {
  phys : Hw.Phys.t;
  alloc : Frame_alloc.t;
  mmu : Hw.Mmu.t;
  env : Hw.Exec_env.t;
      (** the CPU dispatch hooks record ([= Hw.Mmu.env mmu]), armed by the
          scheduler each quantum *)
  cost : Hw.Cost.t;
  log : Event_log.t;
  protection : Protection.t;
  ctx : Protection.ctx;
      (** the protection hooks' view of the machine, built once (every
          field it copies is immutable) *)
  procs : (int, Proc.t) Hashtbl.t;
  children_index : (int, int list) Hashtbl.t;
      (** parent pid -> live child pids, ascending — [children_of] is
          O(children). Maintained by fork/{!reap}; rebuilt by
          {!replace_procs} *)
  pending_wakeups : Hw.Ints.Stack.t;
      (** pids whose blocking condition may have flipped since the last
          scheduler boundary (pipe activity, zombie transitions); drained
          and rechecked by [Sched.wake]. Duplicates and stale pids are
          fine — the recheck filters *)
  mutable wakeup_sink : int -> unit;
      (** the one shared closure pushing onto [pending_wakeups]; attached
          to every pipe the machine owns via {!attach_pipe} *)
  sleepers : Hw.Ints.Heap.t;
      (** processes blocked on [Proc.Sleep], as (wake_cycle, pid) pairs,
          least first; see {!expire_sleepers} and {!earliest_sleeper}.
          Stale entries are dropped lazily; not serialized — restore
          re-derives it through the {!replace_procs} wake seeding *)
  share_images : bool;
      (** loader COW: share read-only image-backed frames across spawns of
          identical guests (default off — opt-in for scale runs, so
          existing scenarios keep their exact frame trajectories) *)
  mutable image_memo : (Image.t * (bool * (int * string) list)) list;
      (** per-image (verify result, per-read-only-segment share keys by
          base), memoized by physical equality so spawn cost is
          independent of image size *)
  libraries : (string, library) Hashtbl.t;
  mutable lib_cursor : int;
  runq : Hw.Ints.Fifo.t;
  rng : Prng.t;
  page_size : int;
  quantum : int;
  stack_jitter_pages : int;
  verify_signatures : bool;
  mutable last_running : int;
      (** pid of the process whose pagetables are loaded; -1 before the
          first switch *)
  mutable next_pid : int;
  mutable next_tick : int;
  mutable ticks : int;
  obs : Obs.t;
  hot : hot option;
  scratch : Bytes.t;
  probe : probe;  (** every slot empty at {!create} *)
}

val create :
  ?frames:int ->
  ?page_size:int ->
  ?quantum:int ->
  ?itlb_capacity:int ->
  ?dtlb_capacity:int ->
  ?tlb_policy:Hw.Tlb.policy ->
  ?stack_jitter_pages:int ->
  ?verify_signatures:bool ->
  ?seed:int ->
  ?caches:bool ->
  ?obs:Obs.t ->
  ?share_images:bool ->
  protection:Protection.t ->
  unit ->
  t
(** Every machine installs a decoded basic-block cache in [env.cache].
    Dispatch stays observationally identical without it — the cache only
    changes wall-clock speed — so a caller wanting the exact byte-at-a-time
    path on one machine sets [env.cache <- None] after [create]. *)

val ctx : t -> Protection.ctx
(** [t.ctx]. *)

val proc : t -> int -> Proc.t option

val find_proc : t -> int -> Proc.t
(** {!proc} without the [option] box: raises [Not_found] for an unknown
    pid. The scheduler's allocation-free lookup. *)


val procs : t -> Proc.t list
(** pid-sorted, for deterministic traversal. *)

val register_library : t -> string -> Isa.Asm.program -> int
val tamper_library : t -> string -> unit
val children_of : t -> Proc.t -> Proc.t list
(** O(children) via the index; pid-ascending. *)

val enqueue : t -> Proc.t -> unit
(** Queue for execution; a no-op when the process is already queued
    ([Proc.in_runq]). *)

val reap : t -> Proc.t -> unit
(** Remove a waited-on zombie from the process table and the children
    index (both as a child and as a parent). *)

val attach_pipe : t -> Pipe.t -> unit
(** Point the pipe's wakeup sink at this machine's pending list. Every
    pipe a machine owns must be attached at creation (spawn, fork, connect,
    sys_pipe, snapshot restore) or blocked waiters on it would sleep
    forever. *)

val register_wait : t -> Proc.t -> Proc.wait_cond -> unit
(** Register a blocked process where its condition can flip: the pipe
    behind the fd for I/O waits (missing/mismatched fds go straight to the
    pending list — they are ready by definition); the sleeper queue for
    [Sleep] waits; nothing for child waits, which {!terminate}'s zombie
    transition notifies directly. *)

val expire_sleepers : t -> unit
(** Pop every sleeper whose deadline has passed onto the pending-wakeup
    list; called at each scheduler boundary. *)

val earliest_sleeper : t -> int
(** Earliest genuine sleeper deadline (dropping stale entries); [-1] when
    nobody is sleeping. Drives the scheduler's tickless idle
    jump when the run queue is empty. *)

val map_demand_page : t -> Proc.t -> Aspace.region -> int -> Pte.t
val cow_service : t -> Pte.t -> unit

val copy_from_user : t -> Proc.t -> int -> int -> string
val copy_to_user : t -> Proc.t -> int -> string -> unit

val pipe_from_user : t -> Proc.t -> Pipe.t -> int -> int -> unit
(** [pipe_from_user t p pipe addr len] queues [len] guest bytes at [addr]
    on [pipe], frame by frame with no intermediate string; [len] must not
    exceed the pipe's space. Every page is mapped and checked before the
    first byte is queued. @raise Efault leaving the pipe untouched. *)

val pipe_to_user : t -> Proc.t -> Pipe.t -> int -> int -> unit
(** [pipe_to_user t p pipe addr n] consumes [n] buffered bytes (at most
    the pipe's level) into guest memory at [addr], frame by frame. The [n]
    bytes are consumed even when a page faults: the pages before the
    fault hold their bytes. @raise Efault on an unmapped or read-only
    page. *)

val read_cstring : t -> Proc.t -> int -> max:int -> string

val terminate : t -> Proc.t -> Proc.exit_status -> unit
val kill : t -> Proc.t -> Proc.signal -> unit

val oom_kill : t -> Proc.t -> unit
(** Allocator exhaustion containment: log a [Fault_detected] (kind ["oom"])
    and SIGKILL the process — graceful degradation instead of a machine
    crash when {!Frame_alloc.Out_of_frames} reaches a trap or syscall
    boundary. *)

val spawn : t -> ?eager:bool -> ?protected:bool -> ?name:string -> Image.t -> Proc.t

val feed_stdin : t -> Proc.t -> string -> int
val close_stdin : t -> Proc.t -> unit
val read_stdout : t -> Proc.t -> string
val connect : ?capacity:int -> t -> Proc.t -> Proc.t -> unit

val do_fork : t -> Proc.t -> int
(** Fork [parent]; returns the child pid. *)

val sebek_trace : t -> Proc.t -> string -> string -> unit
(** Covert per-syscall logging when the process is sebek-tagged. Callers
    build the [info] line only under [p.sebek_active], so tracing costs
    nothing before a detection. *)

val preview : string -> string
(** Printable, truncated preview of guest bytes for log lines: the first
    40 bytes, non-printable ones as ['.'], then ["..."] if more follow. *)

val block : t -> Proc.t -> Proc.state -> unit
(** [block t p (Blocked cond)]: block the process, rewind EIP over
    [int 0x80] so the syscall re-executes on wake-up, and
    {!register_wait} it on [cond]. A shared state
    ({!Proc.blocked_read}) makes this allocation-free.
    @raise Invalid_argument on any other state. *)

val load_pagetables : t -> Proc.t -> unit

val libraries : t -> (string * library) list
(** Registered dynamic libraries, sorted by name. *)

val restore_libraries : t -> (string * library) list -> unit

val replace_procs : t -> Proc.t list -> unit
(** Replace the whole process table (snapshot restore). Does not touch
    the run queue. Re-derives the children index, re-attaches every pipe's
    wakeup sink, and seeds the pending list with all blocked pids so the
    first wake rechecks them (restored pipes carry no waiter lists). *)

val rebuild_shares : t -> unit
(** Re-derive the shared-frame registry and the regions' share keys from
    the restored process table (the registry is perf-only state and is
    never serialized). Call after {!replace_procs} and the allocator
    import; no-op unless [share_images]. *)
