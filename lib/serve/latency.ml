(* Per-request latency accounting: a bounded algorithm-R reservoir for
   percentile estimation plus a pow2 histogram (the Obs.Metrics bucket
   convention) for shape reporting. Reservoir replacement draws from its
   own splitmix64 stream, so recording is deterministic and independent
   of fleet scheduling. *)

type t = {
  capacity : int;
  reservoir : int array;
  mutable count : int;  (* total samples offered *)
  mutable sum : int;
  mutable max : int;
  buckets : int array;  (* pow2: bucket 0 = <=0, bucket k = [2^(k-1), 2^k) *)
  rng : Kernel.Prng.t;
}

let create ?(capacity = 4096) ?(seed = 7) () =
  if capacity <= 0 then invalid_arg "Latency.create: capacity must be positive";
  {
    capacity;
    reservoir = Array.make capacity 0;
    count = 0;
    sum = 0;
    max = 0;
    buckets = Array.make 63 0;
    rng = Kernel.Prng.make seed;
  }

let bucket_of v =
  if v <= 0 then 0
  else
    let rec go k n = if n = 0 then k else go (k + 1) (n lsr 1) in
    go 0 v

let record t v =
  let b = min (bucket_of v) (Array.length t.buckets - 1) in
  t.buckets.(b) <- t.buckets.(b) + 1;
  t.sum <- t.sum + v;
  if v > t.max then t.max <- v;
  if t.count < t.capacity then t.reservoir.(t.count) <- v
  else begin
    (* algorithm R: keep each of the n samples with probability cap/n *)
    let j = Kernel.Prng.int t.rng (t.count + 1) in
    if j < t.capacity then t.reservoir.(j) <- v
  end;
  t.count <- t.count + 1

let count t = t.count

let mean t = if t.count = 0 then None else Some (float_of_int t.sum /. float_of_int t.count)

(* Nearest-rank percentile over the reservoir (exact while the sample
   count is within capacity). [None] when nothing was recorded — the
   zero-request guard, so reports render "-" instead of NaN, matching the
   [Report.percent] convention. *)
let percentile t p =
  if t.count = 0 then None
  else begin
    let n = min t.count t.capacity in
    let sorted = Array.sub t.reservoir 0 n in
    Array.sort compare sorted;
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    Some sorted.(max 0 (min (n - 1) (rank - 1)))
  end

type summary = {
  requests : int;
  p50 : int option;
  p95 : int option;
  p99 : int option;
  p999 : int option;
  lat_max : int option;
}

let summary t =
  {
    requests = t.count;
    p50 = percentile t 50.0;
    p95 = percentile t 95.0;
    p99 = percentile t 99.0;
    p999 = percentile t 99.9;
    lat_max = (if t.count = 0 then None else Some t.max);
  }

(* Histogram buckets with at least one hit, as (lower-bound, count) —
   feeds [Report.dist]. *)
let hist t =
  let out = ref [] in
  Array.iteri
    (fun k c ->
      if c > 0 then
        let lo = if k = 0 then 0 else 1 lsl (k - 1) in
        out := (lo, c) :: !out)
    t.buckets;
  List.rev !out
