(* Host-time spans, recorded by the benchmark around its calls into each
   layer. Spans live in parallel growable arrays until the run ends, so
   opening and closing one costs two clock reads and a few array stores;
   aggregation (calls, total and self time, minor words) and the
   Chrome-trace export happen afterwards. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  mutable n : int;
  mutable id : int array;
  mutable parent : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable words : float array;  (* minor words allocated inside the span *)
  mutable top : int;  (* index of the innermost open span, or -1 *)
}

let create () =
  let cap = 1024 in
  {
    names = Hashtbl.create 16;
    name_of = [||];
    n = 0;
    id = Array.make cap 0;
    parent = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    words = Array.make cap 0.0;
    top = -1;
  }

(* Interned name: resolve once, outside the hot path. *)
let id t name =
  match Hashtbl.find_opt t.names name with
  | Some i -> i
  | None ->
    let i = Array.length t.name_of in
    Hashtbl.replace t.names name i;
    t.name_of <- Array.append t.name_of [| name |];
    i

(* Forget recorded spans (names stay interned). *)
let clear t =
  t.n <- 0;
  t.top <- -1

let grow t =
  let ext a fill = Array.append a (Array.make (Array.length a) fill) in
  t.id <- ext t.id 0;
  t.parent <- ext t.parent 0;
  t.start <- ext t.start 0;
  t.stop <- ext t.stop 0;
  t.words <- ext t.words 0.0

let enter t name =
  if t.n = Array.length t.id then grow t;
  let i = t.n in
  t.n <- i + 1;
  t.id.(i) <- name;
  t.parent.(i) <- t.top;
  t.top <- i;
  t.words.(i) <- Gc.minor_words ();
  t.start.(i) <- now_ns ()

let leave t =
  let i = t.top in
  t.stop.(i) <- now_ns ();
  t.words.(i) <- Gc.minor_words () -. t.words.(i);
  t.top <- t.parent.(i)

(* [wrap t name f x] times [f x] as a span, closing it on exceptions too
   (syscall handlers escape through [Efault] and out-of-frames). *)
let wrap t name f x =
  enter t name;
  match f x with
  | v ->
    leave t;
    v
  | exception e ->
    leave t;
    raise e

type agg = { calls : int; total_ns : int; self_ns : int; minor_words : float }

let zero = { calls = 0; total_ns = 0; self_ns = 0; minor_words = 0.0 }

(* Per-name totals. A span's self time is its duration minus the time
   covered by its direct children. *)
let aggregate t =
  let child = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + (t.stop.(i) - t.start.(i))
  done;
  let acc = Array.make (Array.length t.name_of) zero in
  for i = 0 to t.n - 1 do
    let a = acc.(t.id.(i)) and d = t.stop.(i) - t.start.(i) in
    acc.(t.id.(i)) <-
      {
        calls = a.calls + 1;
        total_ns = a.total_ns + d;
        self_ns = a.self_ns + d - child.(i);
        minor_words = a.minor_words +. t.words.(i);
      }
  done;
  fun name -> match Hashtbl.find_opt t.names name with Some i -> acc.(i) | None -> zero

(* Chrome trace_event JSON events: a thread-name record, then one
   complete ("X") event per span, times in microseconds from the first
   span, with the span's index and its parent's index in [args]. *)
let chrome_events ~tid ~thread t =
  let t0 = if t.n = 0 then 0 else t.start.(0) in
  Printf.sprintf
    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":%S}}" tid
    thread
  :: List.init t.n (fun i ->
         Printf.sprintf
           "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\
            \"args\":{\"id\":%d,\"parent\":%d}}"
           t.name_of.(t.id.(i))
           tid
           (float_of_int (t.start.(i) - t0) /. 1e3)
           (float_of_int (t.stop.(i) - t.start.(i)) /. 1e3)
           i t.parent.(i))
