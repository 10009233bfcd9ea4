exception Out_of_frames

(* The free set is a word-bitmap (bit set = frame free) with two scan
   hints, making both [alloc] and [alloc_pair] O(1) amortized:

   - [hint_word] is a lower bound on the first word containing a free
     frame; [alloc] scans forward from it and takes the lowest set bit.
   - [pair_hint_word] is a lower bound on the first word containing an
     adjacent (even, even+1) pair — the dedicated pair free list the
     split-page path draws from, realized as a masked view of the same
     bitmap so singles and pairs never disagree about what is free.

   62 bits per word keeps the word base even, so an even frame always
   sits at an even bit offset and a pair never straddles a word: a word
   holds a pair iff [word land (word lsr 1) land pair_mask <> 0].

   Selection is deterministic lowest-address-first. Frames are zeroed on
   allocation, so which frame a request receives is invisible to guest
   execution and cost accounting — allocation order is pure layout. *)

let bits_per_word = 62
let pair_mask = 0x1555555555555555 (* bits 0,2,...,60 *)

type t = {
  phys : Hw.Phys.t;
  nframes : int;
  bits : int array;
  mutable free_count : int;
  mutable hint_word : int;
  mutable pair_hint_word : int;
  refcount : int array;
  mutable in_use : int;
  mutable peak_in_use : int;
  (* fault injection (lib/inject): pending count of allocations to fail
     with Out_of_frames regardless of actual free frames. Deliberately not
     part of [state]: it is injector state, not machine state, and rides in
     snapshot metadata instead. *)
  mutable deny_next : int;
  (* Shared-image registry: content key ("digest/vpn") -> frame, plus the
     reverse index used to drop entries when a frame's refcount hits zero
     and to privatize a registered frame before a write reaches it. Derived
     perf-only state: not serialized, cleared on [import]. *)
  shares : (string, int) Hashtbl.t;
  shared : (int, string) Hashtbl.t;
}

let set_bit t f = t.bits.(f / bits_per_word) <- t.bits.(f / bits_per_word) lor (1 lsl (f mod bits_per_word))
let clear_bit t f =
  t.bits.(f / bits_per_word) <- t.bits.(f / bits_per_word) land lnot (1 lsl (f mod bits_per_word))

(* Every frame free: bits 1 .. nframes-1 set, a word at a time (62 set
   bits are [(1 lsl 62) - 1 = max_int]). Frame 0 is reserved as a
   never-allocated null frame. Refcounts are the caller's. *)
let free_all t =
  Array.iteri
    (fun w _ ->
      let n = max 0 (min bits_per_word (t.nframes - (w * bits_per_word))) in
      t.bits.(w) <- (1 lsl n) - 1)
    t.bits;
  clear_bit t 0;
  t.free_count <- max 0 (t.nframes - 1);
  t.hint_word <- 0;
  t.pair_hint_word <- 0;
  t.in_use <- 0

let create phys =
  let n = Hw.Phys.frame_count phys in
  let nwords = ((n + bits_per_word - 1) / bits_per_word) + 1 in
  let t =
    {
      phys;
      nframes = n;
      bits = Array.make nwords 0;
      free_count = 0;
      hint_word = 0;
      pair_hint_word = 0;
      refcount = Array.make n 0;
      in_use = 0;
      peak_in_use = 0;
      deny_next = 0;
      shares = Hashtbl.create 64;
      shared = Hashtbl.create 64;
    }
  in
  free_all t;
  t

let in_use t = t.in_use
let peak_in_use t = t.peak_in_use
let set_deny_next t n = t.deny_next <- max 0 n
let deny_next t = t.deny_next

let denied t =
  t.deny_next > 0
  && begin
       t.deny_next <- t.deny_next - 1;
       true
     end

let ctz x =
  let n = ref 0 and x = ref x in
  while !x land 1 = 0 do
    incr n;
    x := !x lsr 1
  done;
  !n

let take t frame =
  clear_bit t frame;
  t.free_count <- t.free_count - 1;
  t.refcount.(frame) <- 1;
  Hw.Phys.fill t.phys ~frame 0;
  t.in_use <- t.in_use + 1;
  if t.in_use > t.peak_in_use then t.peak_in_use <- t.in_use

let alloc t =
  if denied t then raise Out_of_frames;
  let nwords = Array.length t.bits in
  let w = ref t.hint_word in
  while !w < nwords && t.bits.(!w) = 0 do
    incr w
  done;
  if !w >= nwords then raise Out_of_frames;
  t.hint_word <- !w;
  let frame = (!w * bits_per_word) + ctz t.bits.(!w) in
  take t frame;
  frame

let incref t frame =
  if t.refcount.(frame) <= 0 then invalid_arg "Frame_alloc.incref: frame not allocated";
  t.refcount.(frame) <- t.refcount.(frame) + 1

let refcount t frame = t.refcount.(frame)

let decref t frame =
  if t.refcount.(frame) <= 0 then invalid_arg "Frame_alloc.decref: frame not allocated";
  t.refcount.(frame) <- t.refcount.(frame) - 1;
  if t.refcount.(frame) = 0 then begin
    (match Hashtbl.find_opt t.shared frame with
    | Some key ->
      Hashtbl.remove t.shared frame;
      Hashtbl.remove t.shares key
    | None -> ());
    t.in_use <- t.in_use - 1;
    set_bit t frame;
    t.free_count <- t.free_count + 1;
    let w = frame / bits_per_word in
    if w < t.hint_word then t.hint_word <- w;
    if w < t.pair_hint_word then t.pair_hint_word <- w
  end

let free_frames t = t.free_count

(* ------------------------------------------------------------------ *)
(* Shared-image registry (loader COW)                                  *)
(* ------------------------------------------------------------------ *)

let register_share t ~key ~frame =
  if t.refcount.(frame) <= 0 then
    invalid_arg "Frame_alloc.register_share: frame not allocated";
  Hashtbl.replace t.shares key frame;
  Hashtbl.replace t.shared frame key

let find_share t key = Hashtbl.find_opt t.shares key

(* Privatize a registered frame ahead of a store that must not leak to the
   other mappings: with sharers, hand back a fresh private copy (the
   registry keeps serving the pristine original); as the sole owner, just
   unregister so future loads stop joining this frame. Frames never
   registered — including every pre-existing fork-COW sharing — pass
   through untouched, preserving the seed kernel's aliasing semantics. *)
let unshare t frame =
  match Hashtbl.find_opt t.shared frame with
  | None -> frame
  | Some key ->
    if t.refcount.(frame) > 1 then begin
      let fresh = alloc t in
      Hw.Phys.copy_frame t.phys ~src:frame ~dst:fresh;
      t.refcount.(frame) <- t.refcount.(frame) - 1;
      fresh
    end
    else begin
      Hashtbl.remove t.shared frame;
      Hashtbl.remove t.shares key;
      frame
    end

type state = { s_refcounts : (int * int) list; s_peak_in_use : int }

let export t =
  let pairs = ref [] in
  for f = t.nframes - 1 downto 1 do
    if t.refcount.(f) > 0 then pairs := (f, t.refcount.(f)) :: !pairs
  done;
  { s_refcounts = !pairs; s_peak_in_use = t.peak_in_use }

(* A frame is free exactly when its refcount is zero, so the pairs
   rebuild the bitmap, the free count and [in_use]. Selection is
   lowest-first, so the rebuilt bitmap resumes the exact allocation
   sequence. *)
let import t (s : state) =
  Hashtbl.reset t.shares;
  Hashtbl.reset t.shared;
  free_all t;
  Array.fill t.refcount 0 t.nframes 0;
  List.iter
    (fun (frame, count) ->
      if frame < 1 || frame >= t.nframes || count <= 0 || t.refcount.(frame) <> 0 then
        invalid_arg "Frame_alloc.import: bad refcount pair";
      clear_bit t frame;
      t.refcount.(frame) <- count;
      t.free_count <- t.free_count - 1;
      t.in_use <- t.in_use + 1)
    s.s_refcounts;
  t.peak_in_use <- s.s_peak_in_use

(* Adjacent-pair allocation: the paper's prototype creates the two copies
   of a split page "side-by-side" so the partner is found by frame
   arithmetic (even frame = code copy, +1 = data copy). A word holds a
   pair iff both halves of some even bit position are set; failure leaves
   the free set untouched (no pop/push churn to re-order). *)
let alloc_pair t =
  if denied t then raise Out_of_frames;
  let nwords = Array.length t.bits in
  let pair_bits w = w land (w lsr 1) land pair_mask in
  let w = ref t.pair_hint_word in
  while !w < nwords && pair_bits t.bits.(!w) = 0 do
    incr w
  done;
  if !w >= nwords then raise Out_of_frames;
  t.pair_hint_word <- !w;
  let even = (!w * bits_per_word) + ctz (pair_bits t.bits.(!w)) in
  take t even;
  take t (even + 1);
  (even, even + 1)
