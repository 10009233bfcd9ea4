type t = {
  name : string;
  capacity : int;
  (* the buffered bytes are [data.[read_pos .. write_pos - 1]]; the window
     slides back to the front (or the storage grows) only when a write
     needs room past the end *)
  mutable data : Bytes.t;
  mutable read_pos : int;
  mutable write_pos : int;
  mutable readers : int;
  mutable writers : int;
  mutable bytes_written : int;
  (* Wait queues: pids blocked on this pipe, registered by the scheduler
     layer. A state change that could unblock a side reports each waiting
     pid through [wakeup] (attached by the owning machine) and clears that
     side's list — the scheduler re-registers anyone still blocked after
     rechecking the full wake condition, so a spurious notification is
     harmless. Not serialized: lib/snap restore re-derives pending wakeups
     from blocked-process state. The queues are flat int stacks, so
     registering a waiter allocates no cell. *)
  read_waiters : Hw.Ints.Stack.t;
  write_waiters : Hw.Ints.Stack.t;
  mutable wakeup : int -> unit;
}

let create ?(capacity = 65536) ~name () =
  {
    name;
    capacity;
    data = Bytes.create 256;
    read_pos = 0;
    write_pos = 0;
    readers = 1;
    writers = 1;
    bytes_written = 0;
    read_waiters = Hw.Ints.Stack.create ();
    write_waiters = Hw.Ints.Stack.create ();
    wakeup = ignore;
  }

let level t = t.write_pos - t.read_pos
let is_empty t = level t = 0
let space t = t.capacity - level t
let has_writers t = t.writers > 0
let has_readers t = t.readers > 0

let set_wakeup t f = t.wakeup <- f

let add_waiter ws pid = if not (Hw.Ints.Stack.mem ws pid) then Hw.Ints.Stack.push ws pid
let add_read_waiter t pid = add_waiter t.read_waiters pid
let add_write_waiter t pid = add_waiter t.write_waiters pid

(* Report and clear one side's waiters. *)
let notify t ws =
  let n = Hw.Ints.Stack.length ws in
  if n > 0 then begin
    for i = 0 to n - 1 do
      t.wakeup (Hw.Ints.Stack.get ws i)
    done;
    Hw.Ints.Stack.drop ws n
  end

let notify_readers t = notify t t.read_waiters
let notify_writers t = notify t t.write_waiters

let add_reader t = t.readers <- t.readers + 1
let add_writer t = t.writers <- t.writers + 1

let close_reader t =
  t.readers <- max 0 (t.readers - 1);
  (* last reader gone -> writers see EPIPE; readers re-check EOF too *)
  if t.readers = 0 then notify_writers t

let close_writer t =
  t.writers <- max 0 (t.writers - 1);
  (* last writer gone -> blocked readers see EOF *)
  if t.writers = 0 then notify_readers t

(* Room for [n] more bytes at [write_pos]. The unread window slides to the
   front when that leaves at least half the storage free, else the storage
   doubles: each slide is paid for by the half-storage of writes since the
   last one, and a long-lived pipe never grows past about twice its
   largest backlog. *)
let reserve t n =
  let size = Bytes.length t.data in
  if t.write_pos + n > size then begin
    let level = level t in
    let dst =
      if 2 * (level + n) <= size then t.data
      else Bytes.create (max (2 * size) (level + n))
    in
    Bytes.blit t.data t.read_pos dst 0 level;
    t.data <- dst;
    t.read_pos <- 0;
    t.write_pos <- level
  end

let appended t n =
  t.write_pos <- t.write_pos + n;
  t.bytes_written <- t.bytes_written + n;
  if n > 0 then notify_readers t

let consumed t n =
  t.read_pos <- t.read_pos + n;
  if t.read_pos = t.write_pos then begin
    t.read_pos <- 0;
    t.write_pos <- 0
  end;
  if n > 0 then notify_writers t

let write t s =
  let n = min (String.length s) (space t) in
  reserve t n;
  Bytes.blit_string s 0 t.data t.write_pos n;
  appended t n;
  n

let read t ~max =
  let n = min max (level t) in
  let s = Bytes.sub_string t.data t.read_pos n in
  consumed t n;
  s

let write_from_phys t phys ~frame ~off ~len =
  let n = min len (space t) in
  reserve t n;
  Hw.Phys.read_into phys ~frame ~off t.data ~pos:t.write_pos ~len:n;
  appended t n;
  n

let read_to_phys t phys ~frame ~off ~len =
  let n = min len (level t) in
  (* [write_from] only reads its source, so the storage is lent as a
     string without a copy *)
  Hw.Phys.write_from phys ~frame ~off (Bytes.unsafe_to_string t.data) ~pos:t.read_pos ~len:n;
  consumed t n;
  n

let discard t ~max = consumed t (min max (level t))

let drain t = read t ~max:(level t)

type state = {
  s_name : string;
  s_capacity : int;
  s_pending : string;  (* buffered-but-unread bytes *)
  s_readers : int;
  s_writers : int;
  s_bytes_written : int;
}

let export t =
  {
    s_name = t.name;
    s_capacity = t.capacity;
    s_pending = Bytes.sub_string t.data t.read_pos (level t);
    s_readers = t.readers;
    s_writers = t.writers;
    s_bytes_written = t.bytes_written;
  }

let import (s : state) =
  let t = create ~capacity:s.s_capacity ~name:s.s_name () in
  let n = String.length s.s_pending in
  reserve t n;
  Bytes.blit_string s.s_pending 0 t.data 0 n;
  t.write_pos <- n;
  t.readers <- s.s_readers;
  t.writers <- s.s_writers;
  t.bytes_written <- s.s_bytes_written;
  t
