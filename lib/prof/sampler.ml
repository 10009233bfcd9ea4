(* The bounded sample ring behind the profiler: two parallel int arrays
   (cycle stamp + packed metadata), preallocated at creation, overwritten
   oldest-first when full. Everything the per-translation hook touches is
   an int array slot or a mutable int field, so an armed sampler costs a
   handful of stores per *sampled* translation and a decrement-and-test
   per unsampled one — and never a heap allocation.

   Decimation is a deterministic per-sampler countdown (every [rate]-th
   successful translation), not wall clock, so two runs of the same
   machine — or a run and its replay from a snapshot — take exactly the
   same samples. *)

type sample = {
  cycle : int;
  pid : int;
  vpn : int;
  access : Hw.Mmu.access;
  tlb_hit : bool;
  split_page : bool;
}

type t = {
  rate : int;
  cap : int;
  cycles : int array;
  meta : int array;
  mutable head : int;  (* next write slot *)
  mutable len : int;  (* live samples, <= cap *)
  mutable dropped : int;  (* samples overwritten by ring wrap *)
  mutable countdown : int;  (* translations until the next sample *)
  mutable seen : int;  (* successful translations observed *)
  mutable taken : int;  (* samples ever taken (live + dropped) *)
  mutable cur_pid : int;  (* owner of current translations; 0 = unknown *)
}

(* Bounds the two arrays a sampler allocates (16 MiB), including a ring
   sized by a snapshot's header. *)
let max_capacity = 1 lsl 20

let create ?(capacity = 8192) ~rate () =
  if rate <= 0 then invalid_arg "Sampler.create: rate must be positive";
  if capacity <= 0 || capacity > max_capacity then
    invalid_arg "Sampler.create: capacity must be in 1..2^20";
  {
    rate;
    cap = capacity;
    cycles = Array.make capacity 0;
    meta = Array.make capacity 0;
    head = 0;
    len = 0;
    dropped = 0;
    countdown = rate;
    seen = 0;
    taken = 0;
    cur_pid = 0;
  }

let rate t = t.rate
let length t = t.len
let dropped t = t.dropped
let seen t = t.seen
let taken t = t.taken
let set_pid t pid = t.cur_pid <- pid
let pid t = t.cur_pid

(* Packed metadata layout (OCaml ints are 63-bit):
   bits 0..23   vpn   (32-bit vaddrs / 4K pages need 20)
   bits 24..39  pid   (16 bits)
   bits 40..41  access (0 fetch, 1 read, 2 write)
   bit  42      tlb_hit
   bit  43      split_page *)

let access_code : Hw.Mmu.access -> int = function
  | Hw.Mmu.Fetch -> 0
  | Hw.Mmu.Read -> 1
  | Hw.Mmu.Write -> 2

let access_of_code = function
  | 0 -> Hw.Mmu.Fetch
  | 1 -> Hw.Mmu.Read
  | _ -> Hw.Mmu.Write

let pack ~pid ~vpn ~access ~tlb_hit ~split =
  vpn land 0xFFFFFF
  lor ((pid land 0xFFFF) lsl 24)
  lor (access_code access lsl 40)
  lor ((if tlb_hit then 1 else 0) lsl 42)
  lor ((if split then 1 else 0) lsl 43)

let unpack cycle m =
  {
    cycle;
    vpn = m land 0xFFFFFF;
    pid = (m lsr 24) land 0xFFFF;
    access = access_of_code ((m lsr 40) land 3);
    tlb_hit = (m lsr 42) land 1 = 1;
    split_page = (m lsr 43) land 1 = 1;
  }

(* The per-translation decimation test: true on every [rate]-th call. *)
let tick t =
  t.seen <- t.seen + 1;
  t.countdown <- t.countdown - 1;
  if t.countdown = 0 then begin
    t.countdown <- t.rate;
    true
  end
  else false

let record t ~cycle ~vpn ~access ~tlb_hit ~split =
  let idx = t.head in
  t.cycles.(idx) <- cycle;
  t.meta.(idx) <- pack ~pid:t.cur_pid ~vpn ~access ~tlb_hit ~split;
  t.head <- (idx + 1) mod t.cap;
  if t.len = t.cap then t.dropped <- t.dropped + 1 else t.len <- t.len + 1;
  t.taken <- t.taken + 1

(* Live samples, oldest first. *)
let samples t =
  List.init t.len (fun i ->
      let idx = (t.head - t.len + i + t.cap) mod t.cap in
      unpack t.cycles.(idx) t.meta.(idx))

(* --- snapshot state ------------------------------------------------------ *)

(* The counters, then the live cycle stamps and metadata words oldest
   first. Decoding rebuilds the ring with head = len mod cap — a rotation
   of the original layout, which is invisible to [samples] and to all
   future overwrite behaviour, so a rearmed sampler replays
   bit-identically. The header is checked before the ring is allocated. *)
let live t a = Array.init t.len (fun i -> a.((t.head - t.len + i + t.cap) mod t.cap))

let codec =
  let open Snap.Codec in
  record ()
  |+ (int, fun t -> t.rate)
  |+ (int, fun t -> t.cap)
  |+ (int, fun t -> t.dropped)
  |+ (int, fun t -> t.countdown)
  |+ (int, fun t -> t.seen)
  |+ (int, fun t -> t.taken)
  |+ (int, fun t -> t.cur_pid)
  |+ (int_array, fun t -> live t t.cycles)
  |+ (int_array, fun t -> live t t.meta)
  |> seal (fun rate cap dropped countdown seen taken cur_pid cycles meta ->
         let len = Array.length cycles in
         if rate <= 0 || countdown <= 0 || countdown > rate then
           raise (Corrupt (Fmt.str "sampler: rate %d, countdown %d" rate countdown));
         if cap <= 0 || cap > max_capacity || len > cap || Array.length meta <> len then
           raise (Corrupt (Fmt.str "sampler: %d samples in a ring of %d" len cap));
         let t = create ~capacity:cap ~rate () in
         Array.blit cycles 0 t.cycles 0 len;
         Array.blit meta 0 t.meta 0 len;
         t.len <- len;
         t.head <- len mod cap;
         t.dropped <- dropped;
         t.countdown <- countdown;
         t.seen <- seen;
         t.taken <- taken;
         t.cur_pid <- cur_pid;
         t)
