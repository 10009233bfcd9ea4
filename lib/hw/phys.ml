(* Optional ECC model (lib/inject): a shadow copy of every frame plays the
   role of the SECDED check bits. Writes update both copies; reads compare
   against the shadow and correct-on-read (bumping [corrections] and firing
   [hook]), so a single injected bit flip behaves like a correctable DRAM
   error: invisible to the program, visible to the machine. [flip_bit] is
   the only writer that bypasses the shadow. Shadow frames share the zero
   page exactly as primary frames do. *)
type ecc = {
  shadow : Bytes.t array;
  mutable corrections : int;
  mutable hook : (int -> unit) option;
}

type t = {
  page_size : int;
  page_shift : int;  (* log2 page_size *)
  (* Zero-fill on demand: every frame (and every ECC shadow frame) starts
     as a reference to [zero], one all-zero page per [t] that is never
     written. A frame gets its own [Bytes] the first time a mutation path
     changes it ([own]); reads of an untouched frame read [zero]. A frame
     zeroed in place stays backed, so a recycled frame does not churn
     page-sized allocations. *)
  zero : Bytes.t;
  frames : Bytes.t array;
  mutable ecc : ecc option;
  (* Write watch (lib/hw Bbcache): one flag byte per frame, set by
     [watch_frame] when derived state (a decoded block) was built from the
     frame's bytes. Every mutation path checks the flag and, when set,
     clears it and fires [write_watch] with the frame — so unwatched frames
     (all data traffic) pay a single byte compare per store, and the hook
     fires once per watched frame per dirtying burst. [flip_bit] bypasses
     the watch by design: it models a DRAM bit error, which only the ECC
     machinery may observe — consumers of the watch must not cache derived
     state from frames while ECC is enabled. *)
  watched : Bytes.t;
  mutable write_watch : (int -> unit) option;
}

let create ?(page_size = 4096) ~frames () =
  if frames <= 0 then invalid_arg "Phys.create: frames must be positive";
  if page_size <= 0 || page_size land (page_size - 1) <> 0 then
    invalid_arg "Phys.create: page_size must be a power of two";
  let rec log2 n = if n = 1 then 0 else 1 + log2 (n lsr 1) in
  let zero = Bytes.make page_size '\000' in
  {
    page_size;
    page_shift = log2 page_size;
    zero;
    frames = Array.make frames zero;
    ecc = None;
    watched = Bytes.make frames '\000';
    write_watch = None;
  }

(* The writable backing of [frame] in [pages] (the primary frames or the
   ECC shadow), given its own page on first use. Callers have bounds-checked
   [frame]. *)
let own t pages frame =
  let b = Array.unsafe_get pages frame in
  if b != t.zero then b
  else begin
    let b = Bytes.make t.page_size '\000' in
    Array.unsafe_set pages frame b;
    b
  end

let materialized t =
  Array.fold_left (fun n b -> if b != t.zero then n + 1 else n) 0 t.frames

let set_write_watch t hook = t.write_watch <- hook

let watch_frame t ~frame =
  if frame < 0 || frame >= Array.length t.frames then
    invalid_arg (Fmt.str "Phys.watch_frame: frame %d out of range" frame);
  Bytes.unsafe_set t.watched frame '\001'

let note_write t frame =
  if Bytes.unsafe_get t.watched frame <> '\000' then begin
    Bytes.unsafe_set t.watched frame '\000';
    match t.write_watch with None -> () | Some h -> h frame
  end

let page_size t = t.page_size
let page_shift t = t.page_shift
let frame_count t = Array.length t.frames

let check t frame off len =
  if frame < 0 || frame >= Array.length t.frames then
    invalid_arg (Fmt.str "Phys: frame %d out of range" frame);
  if off < 0 || off + len > t.page_size then
    invalid_arg (Fmt.str "Phys: offset %d+%d out of page" off len)

(* Correct-on-read: repair any primary/shadow mismatch in [off, off+len)
   from the shadow before the caller reads the primary bytes. A frame whose
   primary and shadow are both still the zero page has nothing to repair. *)
let scrub t frame off len =
  match t.ecc with
  | None -> ()
  | Some e ->
    let s = e.shadow.(frame) in
    if s != t.frames.(frame) then
      for i = off to off + len - 1 do
        let good = Bytes.unsafe_get s i in
        if Bytes.unsafe_get t.frames.(frame) i <> good then begin
          Bytes.unsafe_set (own t t.frames frame) i good;
          e.corrections <- e.corrections + 1;
          match e.hook with None -> () | Some h -> h ((frame * t.page_size) + i)
        end
      done

let read8 t ~frame ~off =
  check t frame off 1;
  scrub t frame off 1;
  Char.code (Bytes.get t.frames.(frame) off)

let write8 t ~frame ~off v =
  check t frame off 1;
  let c = Char.chr (v land 0xFF) in
  Bytes.set (own t t.frames frame) off c;
  note_write t frame;
  match t.ecc with None -> () | Some e -> Bytes.set (own t e.shadow frame) off c

let read32 t ~frame ~off =
  check t frame off 4;
  scrub t frame off 4;
  Int32.to_int (Bytes.get_int32_le t.frames.(frame) off) land 0xFFFF_FFFF

let write32 t ~frame ~off v =
  check t frame off 4;
  let b = own t t.frames frame in
  Bytes.set_int32_le b off (Int32.of_int v);
  note_write t frame;
  match t.ecc with
  | None -> ()
  | Some e -> Bytes.blit b off (own t e.shadow frame) off 4

(* Filling an untouched frame (or shadow frame) with zero leaves it on the
   zero page; a backed frame is zeroed in place. *)
let fill t ~frame byte =
  check t frame 0 t.page_size;
  let c = Char.chr (byte land 0xFF) in
  if c <> '\000' || t.frames.(frame) != t.zero then
    Bytes.fill (own t t.frames frame) 0 t.page_size c;
  note_write t frame;
  match t.ecc with
  | None -> ()
  | Some e ->
    if c <> '\000' || e.shadow.(frame) != t.zero then
      Bytes.fill (own t e.shadow frame) 0 t.page_size c

let blit_from_string t ~frame ~off s =
  check t frame off (String.length s);
  Bytes.blit_string s 0 (own t t.frames frame) off (String.length s);
  note_write t frame;
  match t.ecc with
  | None -> ()
  | Some e -> Bytes.blit_string s 0 (own t e.shadow frame) off (String.length s)

let read_into t ~frame ~off dst ~pos ~len =
  check t frame off len;
  scrub t frame off len;
  Bytes.blit t.frames.(frame) off dst pos len

let write_from t ~frame ~off src ~pos ~len =
  check t frame off len;
  Bytes.blit_string src pos (own t t.frames frame) off len;
  note_write t frame;
  match t.ecc with
  | None -> ()
  | Some e -> Bytes.blit_string src pos (own t e.shadow frame) off len

let to_string t ~frame =
  check t frame 0 t.page_size;
  Bytes.to_string t.frames.(frame)

let is_zero_frame t ~frame =
  check t frame 0 t.page_size;
  let b = t.frames.(frame) in
  b == t.zero
  ||
  let n = t.page_size in
  let words = n - (n land 7) in
  let rec go_words i =
    i >= words || (Bytes.get_int64_ne b i = 0L && go_words (i + 8))
  in
  let rec go_bytes i = i >= n || (Bytes.unsafe_get b i = '\000' && go_bytes (i + 1)) in
  go_words 0 && go_bytes words

let blit_to_bytes t ~frame dst =
  check t frame 0 t.page_size;
  if Bytes.length dst < t.page_size then invalid_arg "Phys.blit_to_bytes: dst too small";
  Bytes.blit t.frames.(frame) 0 dst 0 t.page_size

let blit_from_bytes t ~frame src ~len =
  check t frame 0 len;
  if len > Bytes.length src then invalid_arg "Phys.blit_from_bytes: len > src";
  Bytes.blit src 0 (own t t.frames frame) 0 len;
  note_write t frame;
  match t.ecc with None -> () | Some e -> Bytes.blit src 0 (own t e.shadow frame) 0 len

(* The shadow copies the shadow, not the primary: a frame copied while it
   carries an uncorrected flip carries the pending correction along with it
   (the raw codeword was copied, error and all). Copying the zero page onto
   an untouched frame changes nothing and leaves it untouched. *)
let copy_frame t ~src ~dst =
  check t src 0 t.page_size;
  check t dst 0 t.page_size;
  let from = t.frames.(src) in
  if from != t.zero || t.frames.(dst) != t.zero then
    Bytes.blit from 0 (own t t.frames dst) 0 t.page_size;
  note_write t dst;
  match t.ecc with
  | None -> ()
  | Some e ->
    let from = e.shadow.(src) in
    if from != t.zero || e.shadow.(dst) != t.zero then
      Bytes.blit from 0 (own t e.shadow dst) 0 t.page_size

let enable_ecc t =
  let copy b = if b == t.zero then b else Bytes.copy b in
  t.ecc <- Some { shadow = Array.map copy t.frames; corrections = 0; hook = None }

let disable_ecc t = t.ecc <- None
let ecc_enabled t = t.ecc <> None

let set_ecc_hook t hook =
  match t.ecc with
  | None -> invalid_arg "Phys.set_ecc_hook: ECC not enabled"
  | Some e -> e.hook <- hook

let ecc_corrections t = match t.ecc with None -> 0 | Some e -> e.corrections

let flip_bit t ~frame ~off ~bit =
  check t frame off 1;
  if bit < 0 || bit > 7 then invalid_arg "Phys.flip_bit: bit out of range";
  let b = own t t.frames frame in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor (1 lsl bit)))

let ecc_shadow_write8 t ~frame ~off v =
  check t frame off 1;
  match t.ecc with
  | None -> ()
  | Some e -> Bytes.set (own t e.shadow frame) off (Char.chr (v land 0xFF))

let addr t ~frame ~off = (frame * t.page_size) + off
let frame_of_addr t a = a / t.page_size
let off_of_addr t a = a mod t.page_size

(* Physical-address accessors for the MMU fast path: callers that already
   hold a packed paddr (frame * page_size + off) skip the (frame, off)
   tuple round-trip. *)
let read8_at t paddr = read8 t ~frame:(paddr / t.page_size) ~off:(paddr mod t.page_size)
let write8_at t paddr v = write8 t ~frame:(paddr / t.page_size) ~off:(paddr mod t.page_size) v
let read32_at t paddr = read32 t ~frame:(paddr / t.page_size) ~off:(paddr mod t.page_size)
let write32_at t paddr v = write32 t ~frame:(paddr / t.page_size) ~off:(paddr mod t.page_size) v
