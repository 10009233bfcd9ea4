(* Optional ECC model (lib/inject): a shadow copy of every frame plays the
   role of the SECDED check bits. Writes update both copies; reads compare
   against the shadow and correct-on-read (bumping [corrections] and firing
   [hook]), so a single injected bit flip behaves like a correctable DRAM
   error: invisible to the program, visible to the machine. [flip_bit] is
   the only writer that bypasses the shadow. *)
type ecc = {
  shadow : Bytes.t array;
  mutable corrections : int;
  mutable hook : (int -> unit) option;
}

type t = {
  page_size : int;
  page_shift : int;  (* log2 page_size *)
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
  {
    page_size;
    page_shift = log2 page_size;
    frames = Array.init frames (fun _ -> Bytes.make page_size '\000');
    ecc = None;
    watched = Bytes.make frames '\000';
    write_watch = None;
  }

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
   from the shadow before the caller reads the primary bytes. *)
let scrub t frame off len =
  match t.ecc with
  | None -> ()
  | Some e ->
    let p = t.frames.(frame) and s = e.shadow.(frame) in
    for i = off to off + len - 1 do
      let good = Bytes.unsafe_get s i in
      if Bytes.unsafe_get p i <> good then begin
        Bytes.unsafe_set p i good;
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
  Bytes.set t.frames.(frame) off c;
  note_write t frame;
  match t.ecc with None -> () | Some e -> Bytes.set e.shadow.(frame) off c

let read32 t ~frame ~off =
  check t frame off 4;
  scrub t frame off 4;
  Int32.to_int (Bytes.get_int32_le t.frames.(frame) off) land 0xFFFF_FFFF

let write32 t ~frame ~off v =
  check t frame off 4;
  Bytes.set_int32_le t.frames.(frame) off (Int32.of_int v);
  note_write t frame;
  match t.ecc with
  | None -> ()
  | Some e -> Bytes.blit t.frames.(frame) off e.shadow.(frame) off 4

let fill t ~frame byte =
  check t frame 0 t.page_size;
  Bytes.fill t.frames.(frame) 0 t.page_size (Char.chr (byte land 0xFF));
  note_write t frame;
  match t.ecc with
  | None -> ()
  | Some e -> Bytes.fill e.shadow.(frame) 0 t.page_size (Char.chr (byte land 0xFF))

let blit_from_string t ~frame ~off s =
  check t frame off (String.length s);
  Bytes.blit_string s 0 t.frames.(frame) off (String.length s);
  note_write t frame;
  match t.ecc with
  | None -> ()
  | Some e -> Bytes.blit_string s 0 e.shadow.(frame) off (String.length s)

let read_into t ~frame ~off dst ~pos ~len =
  check t frame off len;
  scrub t frame off len;
  Bytes.blit t.frames.(frame) off dst pos len

let write_from t ~frame ~off src ~pos ~len =
  check t frame off len;
  Bytes.blit_string src pos t.frames.(frame) off len;
  note_write t frame;
  match t.ecc with None -> () | Some e -> Bytes.blit_string src pos e.shadow.(frame) off len

let to_string t ~frame =
  check t frame 0 t.page_size;
  Bytes.to_string t.frames.(frame)

let is_zero_frame t ~frame =
  check t frame 0 t.page_size;
  let b = t.frames.(frame) in
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
  Bytes.blit src 0 t.frames.(frame) 0 len;
  note_write t frame;
  match t.ecc with None -> () | Some e -> Bytes.blit src 0 e.shadow.(frame) 0 len

(* The shadow copies the shadow, not the primary: a frame copied while it
   carries an uncorrected flip carries the pending correction along with it
   (the raw codeword was copied, error and all). *)
let copy_frame t ~src ~dst =
  check t src 0 t.page_size;
  check t dst 0 t.page_size;
  Bytes.blit t.frames.(src) 0 t.frames.(dst) 0 t.page_size;
  note_write t dst;
  match t.ecc with
  | None -> ()
  | Some e -> Bytes.blit e.shadow.(src) 0 e.shadow.(dst) 0 t.page_size

let enable_ecc t =
  t.ecc <-
    Some { shadow = Array.map Bytes.copy t.frames; corrections = 0; hook = None }

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
  let v = Char.code (Bytes.get t.frames.(frame) off) lxor (1 lsl bit) in
  Bytes.set t.frames.(frame) off (Char.chr v)

let ecc_shadow_write8 t ~frame ~off v =
  check t frame off 1;
  match t.ecc with
  | None -> ()
  | Some e -> Bytes.set e.shadow.(frame) off (Char.chr (v land 0xFF))

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
