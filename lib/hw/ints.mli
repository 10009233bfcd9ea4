(** Int containers whose operations allocate nothing once their storage
    has grown: a hash table over non-negative int keys, for the block
    cache and the single-step decode memo, and the kernel's pid
    containers — the run queue, the pending-wakeup list, the pipe wait
    queues and the sleeper queue. The stack, FIFO and heap keep their ints
    in flat arrays that double when full, so an operation allocates only
    when the array grows, never in a steady state, where a list or
    [Queue.t] conses a cell per entry. *)

(** [Hashtbl] with monomorphic equality and a cheap hash. *)
module Table : Hashtbl.S with type key = int

(** A stack of ints; iterated by index. *)
module Stack : sig
  type t

  val create : unit -> t
  (** Empty, with no storage until the first {!push}. *)

  val push : t -> int -> unit
  val length : t -> int
  val get : t -> int -> int
  (** [get t i] for [0 <= i < length t], oldest first. *)

  val mem : t -> int -> bool
  val clear : t -> unit

  val truncate : t -> int -> unit
  (** [truncate t n] keeps the [n] oldest elements, [0 <= n <= length t]. *)

  val drop : t -> int -> unit
  (** [drop t n] removes the [n] oldest elements, keeping the rest (those
      pushed while the first [n] were being visited) in order. *)

  val sort_uniq : t -> int
  (** Sort the contents ascending and drop duplicates, in place; returns
      the new {!length}. *)
end

(** A FIFO queue of ints. *)
module Fifo : sig
  type t

  val create : unit -> t
  val push : t -> int -> unit

  val pop : t -> int
  (** The front element, removed; [-1] when empty (the queued ints are
      non-negative). *)

  val clear : t -> unit
  val to_list : t -> int list
  (** Front first. *)
end

(** A min-queue of (key, value) int pairs, ordered by key, then value. *)
module Heap : sig
  type t

  val create : unit -> t
  val push : t -> key:int -> int -> unit
  val is_empty : t -> bool

  val min_key : t -> int
  val min_value : t -> int
  (** The least pair's key and value; the queue must not be empty. *)

  val pop : t -> unit
  (** Remove the least pair. *)

  val clear : t -> unit
end
