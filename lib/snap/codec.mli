(** Two-way binary codecs: the snapshot format, stated once.

    An ['a t] pairs the writer and the reader of one type, so each layout
    is one description that reads back in exactly the order it writes.
    {!Snapshot} describes every type it stores this way.

    Integers are zigzag-encoded into 8 little-endian bytes (OCaml ints are
    63-bit, all simulator values fit in 62). Strings, arrays and lists are
    length-prefixed; options and booleans are one tag byte; an enumeration
    or variant is a tag byte (the position of its case) followed by the
    case's payload; a record is its fields in order. The format favors
    dead-simple decoding over compactness — sparse frame skipping (see
    {!Snapshot}) is where the real size win lives.

    Decoding is total: every read is bounds-checked, and a length prefix
    larger than the bytes left is rejected before anything is allocated. *)

exception Corrupt of string
(** Raised by every read on truncated or malformed input. *)

type 'a t

val u8 : int t
val int : int t

val int64 : int64 t
(** Eight little-endian bytes, like {!int}, without the zigzag. *)

val bool : bool t
val str : string t
val int_array : int array t
val opt : 'a t -> 'a option t
val list : 'a t -> 'a list t
val pair : 'a t -> 'b t -> ('a * 'b) t
val triple : 'a t -> 'b t -> 'c t -> ('a * 'b * 'c) t

val conv : ('a -> 'b) -> ('b -> 'a) -> 'b t -> 'a t
(** [conv to_wire of_wire c] stores an ['a] as its image under [to_wire];
    [of_wire] may reject a decoded value by raising {!Corrupt}. *)

val enum : string -> 'a list -> 'a t
(** [enum what cases]: a value's position in [cases] (compared with [=]),
    as one byte. [what] names the type in error messages. *)

(** {1 Records}

    [record () |+ (c1, get1) |+ (c2, get2) |> seal make] writes [get1 v]
    with [c1], then [get2 v] with [c2], and reads back [make x1 x2],
    reading [x1] first. *)

type ('r, 'c, 'k) fields
(** The fields of an ['r] added so far: a constructor of type ['c] applied
    to them leaves a ['k]. *)

val record : unit -> ('r, 'k, 'k) fields
val ( |+ ) : ('r, 'c, 'a -> 'k) fields -> 'a t * ('r -> 'a) -> ('r, 'c, 'k) fields
val seal : 'c -> ('r, 'c, 'r) fields -> 'r t

(** {1 Variants} *)

type 'a case

val case : 'b t -> ('b -> 'a) -> ('a -> 'b option) -> 'a case
(** [case c inject project]: the values [project] accepts, stored as their
    payload with [c] and rebuilt with [inject]. *)

val variant : string -> 'a case list -> 'a t
(** The tag of the first case that accepts the value, then its payload. *)

(** {1 Blobs} *)

val encode : magic:string -> 'a t -> 'a -> string

val decode : magic:string -> 'a t -> string -> 'a
(** @raise Corrupt on a missing [magic], malformed or truncated input, or
    bytes left over after the value. *)
