type entry = { vpn : int; frame : int; user : bool; writable : bool; nx : bool }

type policy = Fifo | Lru

let policy_name = function Fifo -> "fifo" | Lru -> "lru"

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable flushes : int;
  mutable invalidations : int;
  mutable evictions : int;
}

type t = {
  name : string;
  capacity : int;
  policy : policy;
  table : entry Int_table.t;
  fifo : int Queue.t;
  (* occurrence count of each vpn currently in the queue. Under [Lru] the
     same vpn is re-pushed on every hit; only its *last* occurrence carries
     recency, so [evict_one] must skip a popped vpn whose count says a
     fresher occurrence is still queued. Under [Fifo] counts are 0/1 and the
     logic degenerates to the classic stale-skip. *)
  occ : int Int_table.t;
  stats : stats;
}

let create ?(policy = Fifo) ~name ~capacity () =
  if capacity <= 0 then invalid_arg "Tlb.create: capacity must be positive";
  {
    name;
    capacity;
    policy;
    table = Int_table.create capacity;
    fifo = Queue.create ();
    occ = Int_table.create capacity;
    stats = { hits = 0; misses = 0; flushes = 0; invalidations = 0; evictions = 0 };
  }

let name t = t.name
let capacity t = t.capacity
let policy t = t.policy
let size t = Int_table.length t.table
let stats t = t.stats

let push t vpn =
  Queue.add vpn t.fifo;
  match Int_table.find_opt t.occ vpn with
  | None -> Int_table.add t.occ vpn 1
  | Some n -> Int_table.replace t.occ vpn (n + 1)

(* Under LRU every hit pushes, so the queue would grow without bound;
   compact it deterministically once it exceeds a fixed multiple of
   capacity. Keeping only the *last* occurrence of each live vpn (in
   relative order) preserves the replacement order exactly, so compaction
   is semantically invisible — and because it triggers at a deterministic
   queue length, snapshots taken before/after replay identically. *)
let compact t =
  let raw = Array.of_seq (Queue.to_seq t.fifo) in
  Queue.clear t.fifo;
  Int_table.reset t.occ;
  let kept = ref [] in
  let seen = Int_table.create t.capacity in
  for i = Array.length raw - 1 downto 0 do
    let vpn = raw.(i) in
    if Int_table.mem t.table vpn && not (Int_table.mem seen vpn) then begin
      Int_table.add seen vpn ();
      kept := vpn :: !kept
    end
  done;
  List.iter (fun vpn -> push t vpn) !kept

(* LRU recency update on a hit. Allocates a queue cell — so [Lru] trades
   the allocation-free hit path for better retention; the alloc-gated
   default stays [Fifo]. *)
let touch t vpn =
  push t vpn;
  if Queue.length t.fifo > 8 * t.capacity then compact t

let lookup t vpn =
  match Int_table.find_opt t.table vpn with
  | Some e ->
    t.stats.hits <- t.stats.hits + 1;
    if t.policy = Lru then touch t vpn;
    Some e
  | None ->
    t.stats.misses <- t.stats.misses + 1;
    None

(* Allocation-free hit path for the MMU fast path: no [Some] box per hit,
   and [Not_found] is a constant exception. (Under [Lru] the recency push
   allocates; see [touch].) *)
let find t vpn =
  match Int_table.find t.table vpn with
  | e ->
    t.stats.hits <- t.stats.hits + 1;
    if t.policy = Lru then touch t vpn;
    e
  | exception Not_found ->
    t.stats.misses <- t.stats.misses + 1;
    raise Not_found

(* Bulk hit accounting for the block-dispatch fast path: the caller has
   already proven the next [n] lookups of [vpn] would all hit (the entry is
   resident and nothing can evict it in between), so fold them into one
   call. Must stay observably identical to [n] consecutive [find]s: the hit
   counter advances by [n], and under LRU each folded hit still pushes a
   recency occurrence — including the deterministic compaction trigger. *)
let note_hits t vpn n =
  if n > 0 then begin
    t.stats.hits <- t.stats.hits + n;
    if t.policy = Lru then
      for _ = 1 to n do
        touch t vpn
      done
  end

let peek t vpn = Int_table.find_opt t.table vpn

(* Replacement: pop until a victim qualifies. A popped vpn is skipped when
   it was already invalidated, or (LRU) when a fresher occurrence remains
   queued — only the last occurrence of a vpn carries its recency. *)
let rec evict_one t =
  match Queue.take_opt t.fifo with
  | None -> ()
  | Some victim ->
    let remaining =
      match Int_table.find_opt t.occ victim with Some n -> n - 1 | None -> 0
    in
    if remaining <= 0 then Int_table.remove t.occ victim
    else Int_table.replace t.occ victim remaining;
    if remaining > 0 then evict_one t
    else if Int_table.mem t.table victim then begin
      Int_table.remove t.table victim;
      t.stats.evictions <- t.stats.evictions + 1
    end
    else evict_one t

let insert t (e : entry) =
  let fresh = not (Int_table.mem t.table e.vpn) in
  if fresh && Int_table.length t.table >= t.capacity then evict_one t;
  Int_table.replace t.table e.vpn e;
  if fresh then push t e.vpn

(* Fault-injection surface (lib/inject): enumerate and mutate live entries
   without touching statistics or the FIFO replacement queue — a tampered
   entry must age exactly like the original would have. *)
let entries t =
  Int_table.fold (fun _ e acc -> e :: acc) t.table []
  |> List.sort (fun a b -> compare a.vpn b.vpn)

let tamper t vpn f =
  match Int_table.find_opt t.table vpn with
  | None -> false
  | Some e ->
    let e' = f e in
    Int_table.replace t.table vpn { e' with vpn };
    true

let invalidate t vpn =
  if Int_table.mem t.table vpn then begin
    Int_table.remove t.table vpn;
    t.stats.invalidations <- t.stats.invalidations + 1
  end

let flush t =
  Int_table.reset t.table;
  Queue.clear t.fifo;
  Int_table.reset t.occ;
  t.stats.flushes <- t.stats.flushes + 1

(* Raw state export for snapshots. The FIFO queue is exported verbatim
   (front first) rather than reconstructed from the live table: it may hold
   stale or duplicate vpns, and replaying eviction order bit-for-bit after a
   restore requires preserving exactly that raw sequence. Entries are listed
   sorted by vpn so that logically identical TLBs export identically
   regardless of hashtable history. *)
type state = {
  s_entries : entry list;
  s_fifo : int list;
  s_hits : int;
  s_misses : int;
  s_flushes : int;
  s_invalidations : int;
  s_evictions : int;
}

let export t =
  let entries =
    Int_table.fold (fun _ e acc -> e :: acc) t.table []
    |> List.sort (fun a b -> compare a.vpn b.vpn)
  in
  {
    s_entries = entries;
    s_fifo = List.of_seq (Queue.to_seq t.fifo);
    s_hits = t.stats.hits;
    s_misses = t.stats.misses;
    s_flushes = t.stats.flushes;
    s_invalidations = t.stats.invalidations;
    s_evictions = t.stats.evictions;
  }

let import t (s : state) =
  Int_table.reset t.table;
  Queue.clear t.fifo;
  Int_table.reset t.occ;
  List.iter (fun e -> Int_table.replace t.table e.vpn e) s.s_entries;
  List.iter (fun vpn -> push t vpn) s.s_fifo;
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

let hit_rate t = match hit_rate_opt t with None -> 0.0 | Some r -> r

let pp_stats ppf t =
  Fmt.pf ppf "%s: hits=%d misses=%d flushes=%d invl=%d evict=%d" t.name t.stats.hits
    t.stats.misses t.stats.flushes t.stats.invalidations t.stats.evictions
