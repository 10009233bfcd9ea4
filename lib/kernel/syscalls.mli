(** The syscall layer: a declarative table mapping syscall numbers to
    named handlers.

    Syscalls are registered {e data}: adding one is a {!register} call, and
    the dispatcher never changes. {!dispatch} routes a number through the
    table, maps the kernel-internal escapes ([Efault] -> [-EFAULT],
    out-of-frames -> OOM-kill) and reports to the machine's
    [syscall_tracer] when one is installed — the mechanism behind simctl's
    [--strace]. *)

type handler = Machine.t -> Proc.t -> unit
(** A syscall body: reads its arguments from the process registers
    (EBX/ECX/EDX) and writes its result to EAX, blocks the process, or
    terminates it. *)

type entry = { name : string; handler : handler }

type table

val create : unit -> table
(** An empty table: every number dispatches to the ENOSYS fallback. *)

val register : table -> int -> name:string -> handler -> unit
(** [register t n ~name h] binds syscall number [n] (replacing any
    previous binding).
    @raise Invalid_argument on the shared {!default} table. *)

val find : table -> int -> entry option

val name : table -> int -> string
(** Registered name, or ["sys_<n>"] for unknown numbers. *)

val numbers : table -> int list
(** Registered numbers, sorted. *)

val default : unit -> table
(** The kernel's standard (Linux-numbered) table, shared by every machine
    and domain and therefore read-only: {!register} on it raises. To
    experiment, {!create} a fresh table and copy entries over with
    {!find}/{!numbers}. Returns the same value every call, allocating
    nothing. *)

val dispatch : table -> Machine.t -> Proc.t -> int -> unit
(** Route one syscall: runs the handler (or sets EAX to [-ENOSYS] for an
    unknown number), converting [Machine.Efault] to [-EFAULT] and
    [Frame_alloc.Out_of_frames] to an OOM SIGKILL. When the machine has a
    [syscall_tracer], captures args/outcome/service-cycles around the call
    and reports a {!Machine.syscall_trace}. *)
