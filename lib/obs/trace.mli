(** Structured trace events stamped with the virtual cycle clock, collected
    in a bounded ring buffer and exportable as JSONL or Chrome
    [trace_event] JSON. *)

type phase =
  | Instant
  | Begin
  | End
  | Complete of int  (** a finished span carrying its duration in cycles *)

type event = {
  ts : int;  (** virtual cycle timestamp ([Hw.Cost.t.cycles]) *)
  cat : string;  (** subsystem: "hw", "os", "split", "log", ... *)
  name : string;
  ph : phase;
  args : (string * Json.t) list;
}

type ring

val create : ?capacity:int -> unit -> ring
(** Bounded sink (default 8192 events); once full, new events are counted
    as dropped rather than grown without bound. *)

val length : ring -> int

val dropped : ring -> int
(** Events discarded because the ring was full. *)

val add : ring -> event -> unit
val to_list : ring -> event list
(** Oldest retained event first. *)

val jsonl : event list -> string
(** One JSON object per line. *)

val of_jsonl : string -> (event list, string) result
val write_jsonl : out_channel -> event list -> unit

val chrome : event list -> Json.t
(** Chrome [about://tracing] document; cycle counts stand in for the
    microsecond timestamps. *)
