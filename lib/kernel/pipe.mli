(** Bounded byte FIFO: the kernel's pipe object, also used for process
    consoles (the "network" between exploit drivers and victim servers). *)

type t

val create : ?capacity:int -> name:string -> unit -> t
val level : t -> int
(** Bytes currently buffered. *)

val is_empty : t -> bool
val space : t -> int
val has_writers : t -> bool
val has_readers : t -> bool

val add_reader : t -> unit
val add_writer : t -> unit
val close_reader : t -> unit
val close_writer : t -> unit

val set_wakeup : t -> (int -> unit) -> unit
(** Attach the owning machine's wakeup sink. Every state change that could
    unblock a side ([write], [read]/[drain], the closing of the last
    endpoint of either side) reports each registered waiting pid through
    it. Defaults to [ignore]. *)

val add_read_waiter : t -> int -> unit
(** Register a pid blocked reading this pipe; dropped (and reported via the
    wakeup sink) at the next readability change. Idempotent. *)

val add_write_waiter : t -> int -> unit
(** Register a pid blocked writing this pipe. Idempotent. *)

val write : t -> string -> int
(** Append up to the available space; returns the number of bytes taken. *)

val read : t -> max:int -> string
(** Consume up to [max] buffered bytes (possibly [""]). *)

val drain : t -> string
(** Consume everything buffered. *)

(** {2 In-place I/O}

    The syscall layer moves guest bytes between physical frames and the
    pipe's own storage, with no intermediate string. Each call is one
    {!write} or {!read} of a frame slice: same space/level bounds, same
    counter and the same wakeups. *)

val write_from_phys : t -> Hw.Phys.t -> frame:int -> off:int -> len:int -> int
(** {!write} of the [len] bytes at [off] in [frame]; returns the number
    taken. *)

val read_to_phys : t -> Hw.Phys.t -> frame:int -> off:int -> len:int -> int
(** {!read} of up to [len] bytes, stored at [off] in [frame]; returns the
    number consumed. *)

val discard : t -> max:int -> unit
(** Consume up to [max] buffered bytes without copying them anywhere. *)

type state = {
  s_name : string;
  s_capacity : int;
  s_pending : string;  (** buffered-but-unread bytes *)
  s_readers : int;
  s_writers : int;
  s_bytes_written : int;
}
(** Serializable pipe state. Consumed bytes are not preserved — only the
    unread window, endpoint counts and the throughput counter. *)

val export : t -> state
val import : state -> t
(** Build a fresh pipe holding exactly the exported state. *)
