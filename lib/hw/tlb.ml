(* The x86 PTE word: what the MMU's walker returns and what a slot
   caches. Kernel.Hw_pagetable stores the same layout in simulated
   memory, with two software bits (split, data-selected) at 0x200/0x400
   that the hardware ignores. *)
let pte_present = 0x001
let pte_writable = 0x002
let pte_user = 0x004
let pte_nx = 0x100
let pte_frame_shift = 12

let word ~frame ~writable ~user ~nx =
  (frame lsl pte_frame_shift) lor pte_present
  lor (if writable then pte_writable else 0)
  lor (if user then pte_user else 0)
  lor if nx then pte_nx else 0

let frame_of_word w = w lsr pte_frame_shift

type policy = Fifo | Lru

let policy_name = function Fifo -> "fifo" | Lru -> "lru"

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable flushes : int;
  mutable invalidations : int;
  mutable evictions : int;
}

(* One structure, sized once by [capacity]:
   - [vpns] and [words] hold the resident entries, one per slot: its vpn
     (-1 when vacant) and its PTE word, so a hit or a fill moves ints and
     allocates nothing;
   - [index] maps a vpn to its slot: open addressing with linear probing
     over a power-of-two table at most half full, -1 marking an empty
     cell, and backward-shift deletion, so no tombstones ever build up;
   - the replacement list threads the resident slots oldest first through
     [next]/[prev]. It is circular, with index [capacity] as its sentinel:
     [next.(capacity)] is the victim and [prev.(capacity)] the youngest.
     An insert appends, an LRU hit moves its slot to the tail, invalidate
     and evict unlink — each O(1);
   - a slot off the list is either unused since the last flush (slots
     [fresh] and up) or freed since, on a stack linked through [next]
     from [freed] (-1 ends it). *)
type t = {
  name : string;
  capacity : int;
  policy : policy;
  vpns : int array;
  words : int array;
  next : int array;
  prev : int array;
  mutable size : int;
  mutable fresh : int;
  mutable freed : int;
  index : int array;
  mask : int;
  shift : int;
  stats : stats;
}

let create ?(policy = Fifo) ~name ~capacity () =
  if capacity <= 0 then invalid_arg "Tlb.create: capacity must be positive";
  let bits = ref 1 in
  while 1 lsl !bits < 2 * capacity do
    incr bits
  done;
  {
    name;
    capacity;
    policy;
    vpns = Array.make capacity (-1);
    words = Array.make capacity 0;
    next = Array.make (capacity + 1) capacity;
    prev = Array.make (capacity + 1) capacity;
    size = 0;
    fresh = 0;
    freed = -1;
    index = Array.make (1 lsl !bits) (-1);
    mask = (1 lsl !bits) - 1;
    shift = Sys.int_size - !bits;
    stats = { hits = 0; misses = 0; flushes = 0; invalidations = 0; evictions = 0 };
  }

let name t = t.name
let capacity t = t.capacity
let policy t = t.policy
let size t = t.size
let stats t = t.stats

(* Multiplicative (Fibonacci) hashing: the top bits of the product, so
   consecutive vpns land far apart instead of in one probe run. *)
let[@inline] home t vpn = (vpn * 0x4F1B_BCDC_BFA5_3E0B) lsr t.shift

(* The probe loops below are top-level functions with every variable an
   argument: a local closure would be allocated on each call. *)

let rec probe t vpn i =
  let s = Array.unsafe_get t.index i in
  if s < 0 then -1
  else if Array.unsafe_get t.vpns s = vpn then i
  else probe t vpn ((i + 1) land t.mask)

(* The index cell holding [vpn]'s slot, or -1 if it is not resident. The
   first cell is tested inline: at most half full, the index usually
   answers there. *)
let locate t vpn =
  let i = home t vpn in
  let s = Array.unsafe_get t.index i in
  if s < 0 then -1
  else if Array.unsafe_get t.vpns s = vpn then i
  else probe t vpn ((i + 1) land t.mask)

(* Cell [hole] is being emptied: pull back every later entry of its probe
   run that may legally sit there, one whose home is not cyclically in
   (hole, j]. *)
let rec shift_back t hole j =
  let s = t.index.(j) in
  if s < 0 then t.index.(hole) <- -1
  else if (j - home t t.vpns.(s)) land t.mask >= (j - hole) land t.mask then begin
    t.index.(hole) <- s;
    shift_back t j ((j + 1) land t.mask)
  end
  else shift_back t hole ((j + 1) land t.mask)

let rec place_at t s i =
  if t.index.(i) < 0 then t.index.(i) <- s else place_at t s ((i + 1) land t.mask)

let place t s = place_at t s (home t t.vpns.(s))

let unlink t s =
  let p = t.prev.(s) and n = t.next.(s) in
  t.next.(p) <- n;
  t.prev.(n) <- p

let append t s =
  let last = t.prev.(t.capacity) in
  t.next.(last) <- s;
  t.prev.(s) <- last;
  t.next.(s) <- t.capacity;
  t.prev.(t.capacity) <- s

(* LRU recency: the slot becomes the youngest. *)
let touch t s =
  if t.prev.(t.capacity) <> s then begin
    unlink t s;
    append t s
  end

(* Drop the entry in index cell [i]. *)
let remove t i =
  let s = t.index.(i) in
  shift_back t i ((i + 1) land t.mask);
  unlink t s;
  t.next.(s) <- t.freed;
  t.freed <- s;
  t.size <- t.size - 1

(* The MMU's hit path: the cached word, or -1 on a miss — no box. *)
let find t vpn =
  let i = locate t vpn in
  if i >= 0 then begin
    let s = Array.unsafe_get t.index i in
    t.stats.hits <- t.stats.hits + 1;
    if t.policy = Lru then touch t s;
    Array.unsafe_get t.words s
  end
  else begin
    t.stats.misses <- t.stats.misses + 1;
    -1
  end

(* Bulk hit accounting for the block-dispatch fast path: the caller has
   already proven the next [n] lookups of [vpn] would all hit, so fold
   them into one call. [n] consecutive hits on one entry leave the same
   recency as one, so this stays observably identical to [n] [find]s. *)
let note_hits t vpn n =
  if n > 0 then begin
    t.stats.hits <- t.stats.hits + n;
    if t.policy = Lru then begin
      let i = locate t vpn in
      if i >= 0 then touch t t.index.(i)
    end
  end

let peek t vpn =
  let i = locate t vpn in
  if i >= 0 then t.words.(t.index.(i)) else -1

let fill t vpn w =
  let i = locate t vpn in
  if i >= 0 then t.words.(t.index.(i)) <- w
  else begin
    if t.size = t.capacity then begin
      remove t (locate t t.vpns.(t.next.(t.capacity)));
      t.stats.evictions <- t.stats.evictions + 1
    end;
    let s =
      if t.freed >= 0 then begin
        let s = t.freed in
        t.freed <- t.next.(s);
        s
      end
      else begin
        t.fresh <- t.fresh + 1;
        t.fresh - 1
      end
    in
    t.size <- t.size + 1;
    t.vpns.(s) <- vpn;
    t.words.(s) <- w;
    place t s;
    append t s
  end

(* Resident [(vpn, word)] pairs, oldest first. *)
let to_list t =
  let rec go s acc = if s = t.capacity then acc else go t.prev.(s) ((t.vpns.(s), t.words.(s)) :: acc) in
  go t.prev.(t.capacity) []

(* Fault-injection surface (lib/inject): enumerate and mutate live entries
   without touching statistics or the replacement list — a tampered entry
   must age exactly like the original would have. *)
let entries t = List.sort compare (to_list t)

let tamper t vpn f =
  let i = locate t vpn in
  if i < 0 then false
  else begin
    let s = t.index.(i) in
    t.words.(s) <- f t.words.(s);
    true
  end

let invalidate t vpn =
  let i = locate t vpn in
  if i >= 0 then begin
    remove t i;
    t.stats.invalidations <- t.stats.invalidations + 1
  end

(* O(resident): clear each resident entry's probe run, from its home cell
   to the first empty one. A run cleared earlier was cleared to its end,
   so every entry still in the index is reached from its own home. *)
let rec wipe t i =
  if t.index.(i) >= 0 then begin
    t.index.(i) <- -1;
    wipe t ((i + 1) land t.mask)
  end

let rec clear_from t s =
  if s <> t.capacity then begin
    wipe t (home t t.vpns.(s));
    clear_from t t.next.(s)
  end

let clear t =
  clear_from t t.next.(t.capacity);
  t.size <- 0;
  t.fresh <- 0;
  t.freed <- -1;
  t.next.(t.capacity) <- t.capacity;
  t.prev.(t.capacity) <- t.capacity

let flush t =
  clear t;
  t.stats.flushes <- t.stats.flushes + 1

type state = {
  s_entries : (int * int) list;
  s_hits : int;
  s_misses : int;
  s_flushes : int;
  s_invalidations : int;
  s_evictions : int;
}

let export t =
  {
    s_entries = to_list t;
    s_hits = t.stats.hits;
    s_misses = t.stats.misses;
    s_flushes = t.stats.flushes;
    s_invalidations = t.stats.invalidations;
    s_evictions = t.stats.evictions;
  }

(* Inserting the entries oldest first leaves each at its exported age. *)
let import t (s : state) =
  clear t;
  List.iter
    (fun (vpn, w) ->
      if t.size = t.capacity then invalid_arg "Tlb.import: more entries than capacity";
      if locate t vpn >= 0 then invalid_arg "Tlb.import: repeated vpn";
      fill t vpn w)
    s.s_entries;
  t.stats.hits <- s.s_hits;
  t.stats.misses <- s.s_misses;
  t.stats.flushes <- s.s_flushes;
  t.stats.invalidations <- s.s_invalidations;
  t.stats.evictions <- s.s_evictions

(* [None] before any lookup: "no accesses yet" is not the same thing as a
   0% hit rate, and rendering layers print it as [-] rather than a bogus
   percentage. *)
let hit_rate_opt t =
  let total = t.stats.hits + t.stats.misses in
  if total = 0 then None else Some (float_of_int t.stats.hits /. float_of_int total)

let pp_stats ppf t =
  Fmt.pf ppf "%s: hits=%d misses=%d flushes=%d invl=%d evict=%d" t.name t.stats.hits
    t.stats.misses t.stats.flushes t.stats.invalidations t.stats.evictions

(* The benchmark adapter (see the interface). *)
type entry = { vpn : int; frame : int; user : bool; writable : bool; nx : bool }

let insert t e = fill t e.vpn (word ~frame:e.frame ~writable:e.writable ~user:e.user ~nx:e.nx)
