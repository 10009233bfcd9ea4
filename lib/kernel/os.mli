(** The mini operating system: loader, demand paging, copy-on-write, fork,
    pipes, syscalls, signals and a round-robin scheduler, all built around a
    pluggable {!Protection.t}.

    The guest/host boundary mirrors the paper's: guest code runs on the
    simulated CPU in user mode; everything here is "kernel" and manipulates
    PTEs and TLBs the way the Linux patch of §5 does.

    This module is a facade over four explicit layers — {!Machine} (state
    and memory/process services), {!Syscalls} (the declarative syscall
    table), {!Trap} (trap taxonomy and dispatch through the protection
    hooks) and {!Sched} (the run loop). Use {!machine} to reach a layer
    directly; this API is the stable surface. *)

exception Rejected_image of string
(** Raised by {!spawn} when signature verification fails (paper §4.3). *)

exception Efault
(** Kernel access to an unmapped/forbidden guest address. *)

type stop_reason =
  | All_exited  (** every process is a zombie *)
  | All_blocked  (** deadlock or waiting for external input (e.g. stdin) *)
  | Fuel_exhausted

type t

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
(** [stack_jitter_pages] models the slight stack-placement randomization of
    Linux 2.6 that made the Samba exploit brute-force (paper §6.1.2).
    The protection's [soft_tlb] selects the SPARC-style software-managed
    TLB of §4.7 instead of the x86 hardware page walker. [tlb_policy] (default
    {!Hw.Tlb.Fifo}) selects the TLB replacement policy — the profiler's
    eviction experiments sweep it. [obs] (default {!Obs.null})
    turns on cycle-stamped tracing and metrics across the whole machine:
    the clock is wired to the cost model, the MMU and event log emit into
    it, and a snapshot hook imports TLB/cache/cost statistics as gauges.
    Every machine installs a decoded basic-block cache — a pure dispatch
    optimization with no observable effect beyond wall-clock speed; set
    [(env t).cache <- None] to run one machine on exact dispatch. *)

val ctx : t -> Protection.ctx
val log : t -> Event_log.t
val obs : t -> Obs.t
val syscall_name : int -> string
val cost : t -> Hw.Cost.t
val mmu : t -> Hw.Mmu.t

val env : t -> Hw.Exec_env.t
(** The hardware half of the machine's hooks (see {!Hw.Exec_env}) — where
    the profiler installs its sampling hook and the injector its TLB
    guard. *)

val bbcache : t -> Hw.Bbcache.t option
(** The installed block cache, [= (env t).cache]. *)

val phys : t -> Hw.Phys.t
val alloc : t -> Frame_alloc.t
val page_size : t -> int
val proc : t -> int -> Proc.t option
val procs : t -> Proc.t list
val protection : t -> Protection.t
val children_of : t -> Proc.t -> Proc.t list

val register_library : t -> string -> Isa.Asm.program -> int
(** Install a dynamic library (paper §4.3): assembled at a prelink base,
    signed, loadable by guests via the [uselib] syscall (137), which
    validates the signature and maps it (split per policy on demand).
    Returns the base address. *)

val tamper_library : t -> string -> unit
(** Corrupt a registered library's code without re-signing — the loader
    must then reject it. *)

val spawn : t -> ?eager:bool -> ?protected:bool -> ?name:string -> Image.t -> Proc.t
(** Load an image into a fresh process. [eager] maps (and, under split
    memory, duplicates) every image page at load time — the paper's
    prototype behaviour; the default is demand paging, the optimization
    §5.1 proposes. [protected:false] gives the process a plain von Neumann
    view (no splitting, no NX marking) — the per-process backwards
    compatibility of §3.3.1, needed e.g. for self-modifying programs.
    @raise Rejected_image on signature failure. *)

val feed_stdin : t -> Proc.t -> string -> int
(** Driver-side injection into the process console (the "network"). *)

val close_stdin : t -> Proc.t -> unit
val read_stdout : t -> Proc.t -> string

val connect : ?capacity:int -> t -> Proc.t -> Proc.t -> unit
(** Cross-wire two processes' fds 0/1 with a fresh pipe pair
    (client/server workloads). *)

val run : ?fuel:int -> t -> stop_reason
(** Schedule until exit, deadlock, or fuel exhaustion. Exploit drivers
    alternate [run] / [feed_stdin]. *)

val copy_from_user : t -> Proc.t -> int -> int -> string
(** Kernel read of guest memory (reaches split pages' data copies);
    demand-maps as needed. @raise Efault. *)

val copy_to_user : t -> Proc.t -> int -> string -> unit
val read_cstring : t -> Proc.t -> int -> max:int -> string
val load_pagetables : t -> Proc.t -> unit
val map_demand_page : t -> Proc.t -> Aspace.region -> int -> Pte.t

(** {2 Snapshot support}

    Raw state exposure consumed by [lib/snap]. These accessors export and
    replace whole-machine bookkeeping; they are not meant for normal kernel
    clients. *)

val set_sched_hook : t -> (unit -> unit) option -> unit
(** [(probe t).boundary <- hook]. *)

type library = Machine.library = { lib_base : int; code : string; lib_signature : int }

val libraries : t -> (string * library) list
(** Registered dynamic libraries, sorted by name. *)

val restore_libraries : t -> (string * library) list -> unit

val replace_procs : t -> Proc.t list -> unit
(** Replace the whole process table (snapshot restore). Does not touch the
    run queue — pair with {!Sched.restore}. *)

(** {2 Layer access} *)

val machine : t -> Machine.t
(** The machine behind the facade (the identity — [t] {e is} the machine).
    Hands the kernel's internal layers ({!Sched}, {!Trap}, {!Syscalls})
    and tools direct access to the state layer. *)

val probe : t -> Machine.probe
(** The kernel half of the machine's hooks (see {!Machine.probe}): attach
    by writing a slot, e.g. [(probe t).boundary <- Some f]. *)

val set_syscall_tracer : t -> (Machine.syscall_trace -> unit) option -> unit
(** [(probe t).syscall <- tracer]. *)

val last_running : t -> int option
(** Pid of the last process the scheduler switched to, if any — what a
    freshly installed switch hook must seed from (the hook only fires on
    change). *)
