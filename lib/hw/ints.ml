(* Int containers whose operations allocate nothing once grown: a hash
   table over int keys, and the stack, FIFO and min-heap the kernel keeps
   pids in. *)

(* A hash table over int keys (packed paddrs, instruction bytes) for the
   block cache and the single-step memo, which sit on the dispatch hot
   path: monomorphic equality and an inlineable hash instead of the
   polymorphic [compare] and the C [Hashtbl.hash]. The hash folds bit 12
   and up into the low bits, which pick the bucket, so the paddrs of
   blocks at one page offset in different frames do not share a bucket.
   Nothing observable depends on bucket order: every listing of a table
   is sorted. *)
module Table = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash x = x lxor (x lsr 12)
end)

(* The stack, FIFO and heap: flat int arrays that double when full. *)
let grow a len =
  let b = Array.make (max 8 (2 * Array.length a)) 0 in
  Array.blit a 0 b 0 len;
  b

module Stack = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = [||]; len = 0 }

  let push t x =
    if t.len = Array.length t.a then t.a <- grow t.a t.len;
    t.a.(t.len) <- x;
    t.len <- t.len + 1

  let length t = t.len
  let get t i = t.a.(i)

  let rec mem_from t x i = i < t.len && (t.a.(i) = x || mem_from t x (i + 1))
  let mem t x = mem_from t x 0
  let clear t = t.len <- 0

  let drop t n =
    Array.blit t.a n t.a 0 (t.len - n);
    t.len <- t.len - n

  (* Insertion sort: the pending lists it sorts are short or already
     nearly ascending (a restore seeds them in pid order). *)
  let sort_uniq t =
    let a = t.a in
    for i = 1 to t.len - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done;
    if t.len > 1 then begin
      let k = ref 1 in
      for i = 1 to t.len - 1 do
        if a.(i) <> a.(!k - 1) then begin
          a.(!k) <- a.(i);
          incr k
        end
      done;
      t.len <- !k
    end;
    t.len
end

(* A ring: the queue is [a.(head)], [a.(head + 1)], ... modulo the
   capacity, a power of two. *)
module Fifo = struct
  type t = { mutable a : int array; mutable head : int; mutable len : int }

  let create () = { a = Array.make 16 0; head = 0; len = 0 }

  let push t x =
    let cap = Array.length t.a in
    if t.len = cap then begin
      let b = Array.make (2 * cap) 0 in
      for i = 0 to t.len - 1 do
        b.(i) <- t.a.((t.head + i) land (cap - 1))
      done;
      t.a <- b;
      t.head <- 0
    end;
    t.a.((t.head + t.len) land (Array.length t.a - 1)) <- x;
    t.len <- t.len + 1

  let pop t =
    if t.len = 0 then -1
    else begin
      let x = t.a.(t.head) in
      t.head <- (t.head + 1) land (Array.length t.a - 1);
      t.len <- t.len - 1;
      x
    end

  let clear t =
    t.head <- 0;
    t.len <- 0

  let to_list t = List.init t.len (fun i -> t.a.((t.head + i) land (Array.length t.a - 1)))
end

(* A binary min-heap over parallel key/value arrays. *)
module Heap = struct
  type t = { mutable keys : int array; mutable values : int array; mutable len : int }

  let create () = { keys = [||]; values = [||]; len = 0 }
  let is_empty t = t.len = 0
  let min_key t = t.keys.(0)
  let min_value t = t.values.(0)

  let less t i j =
    let ki = t.keys.(i) and kj = t.keys.(j) in
    ki < kj || (ki = kj && t.values.(i) < t.values.(j))

  let swap t i j =
    let k = t.keys.(i) and v = t.values.(i) in
    t.keys.(i) <- t.keys.(j);
    t.values.(i) <- t.values.(j);
    t.keys.(j) <- k;
    t.values.(j) <- v

  let rec up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if less t i parent then begin
        swap t i parent;
        up t parent
      end
    end

  let rec down t i =
    let l = (2 * i) + 1 in
    if l < t.len then begin
      let c = if l + 1 < t.len && less t (l + 1) l then l + 1 else l in
      if less t c i then begin
        swap t c i;
        down t c
      end
    end

  let push t ~key v =
    if t.len = Array.length t.keys then begin
      t.keys <- grow t.keys t.len;
      t.values <- grow t.values t.len
    end;
    t.keys.(t.len) <- key;
    t.values.(t.len) <- v;
    t.len <- t.len + 1;
    up t (t.len - 1)

  let pop t =
    t.len <- t.len - 1;
    if t.len > 0 then begin
      t.keys.(0) <- t.keys.(t.len);
      t.values.(0) <- t.values.(t.len);
      down t 0
    end

  let clear t = t.len <- 0
end
