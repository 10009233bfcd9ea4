(* The snapshot subsystem: codec round-trips, the pinned wire format,
   decode fuzzing, re-encoding and restore over a used machine, run-to-run
   determinism, the reach of the replay observation, the auto-checkpoint
   ring, forensic capture, and the file format. Checkpoint/restore replay
   of every scenario into a fresh machine is the determinism harness's
   checkpoint axis (test_equiv). *)

(* Run to the end and render the machine (the determinism harness's one
   observation). *)
let run_to_end os = Snap.Replay.observe os (Kernel.Os.run ~fuel:Test_equiv.fuel os)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let scenario name =
  match Snap.Scenario.find name with
  | Some s -> s
  | None -> Alcotest.failf "unknown scenario %s" name

(* --- Codec --------------------------------------------------------------- *)

let test_codec_roundtrip () =
  let open Snap.Codec in
  let roundtrip c v = decode ~magic:"HDR" c (encode ~magic:"HDR" c v) in
  List.iter
    (fun v -> Alcotest.(check int) "int" v (roundtrip int v))
    [ 0; 1; -1; 42; -123456789; max_int / 2; -(max_int / 2) ];
  Alcotest.(check string) "str" "hello\000world" (roundtrip str "hello\000world");
  Alcotest.(check string) "empty str" "" (roundtrip str "");
  Alcotest.(check bool) "true" true (roundtrip bool true);
  Alcotest.(check bool) "false" false (roundtrip bool false);
  Alcotest.(check (option int)) "none" None (roundtrip (opt int) None);
  Alcotest.(check (option int)) "some" (Some (-7)) (roundtrip (opt int) (Some (-7)));
  Alcotest.(check (list string))
    "list" [ "a"; "bb"; "" ]
    (roundtrip (list str) [ "a"; "bb"; "" ]);
  Alcotest.(check (array int)) "array" [| 3; -4; 5 |] (roundtrip int_array [| 3; -4; 5 |]);
  List.iter
    (fun v -> Alcotest.(check int64) "int64" v (roundtrip int64 v))
    [ 0L; -1L; Int64.min_int; Int64.max_int ];
  (* the primitives' bytes: zigzag ints, 8 bytes little-endian *)
  Alcotest.(check string) "wire" "HDR\003\000\000\000\000\000\000\000\001"
    (encode ~magic:"HDR" (pair int bool) (-2, true));
  Alcotest.(check string) "int64 wire" "\254\255\255\255\255\255\255\255"
    (encode ~magic:"" int64 (-2L))

(* Records read their fields in the order they are written, variants and
   enums by their tag; [conv] may reject what it decodes. *)
type sample = { a : int; b : string; c : bool list }
type shape = Dot | Box of int * int | Label of string

let test_codec_combinators () =
  let open Snap.Codec in
  let sample =
    record ()
    |+ (int, fun s -> s.a)
    |+ (str, fun s -> s.b)
    |+ (list bool, fun s -> s.c)
    |> seal (fun a b c -> { a; b; c })
  in
  let shape =
    variant "shape"
      [
        case u8 (fun _ -> Dot) (function Dot -> Some 0 | _ -> None);
        case (pair int int)
          (fun (w, h) -> Box (w, h))
          (function Box (w, h) -> Some (w, h) | _ -> None);
        case str (fun s -> Label s) (function Label s -> Some s | _ -> None);
      ]
  in
  let even = conv Fun.id (fun n -> if n mod 2 = 0 then n else raise (Corrupt "odd")) int in
  let colour = enum "colour" [ `Red; `Green ] in
  let c = triple sample (list shape) (pair colour even) in
  let s0 = { a = -5; b = "x"; c = [ true; false ] } in
  let v = (s0, [ Box (3, -4); Dot; Label "" ], (`Green, 8)) in
  Alcotest.(check bool) "round trip" true (decode ~magic:"" c (encode ~magic:"" c v) = v);
  let sample_bytes = encode ~magic:"" sample s0 in
  Alcotest.(check string)
    "fields in order"
    (encode ~magic:"" (triple int str (list bool)) (-5, "x", [ true; false ]))
    sample_bytes;
  let rejects what s =
    match decode ~magic:"" c s with
    | exception Corrupt _ -> ()
    | _ -> Alcotest.failf "%s accepted" what
  in
  let good = encode ~magic:"" c v in
  let n = String.length good in
  let with_byte at b = String.mapi (fun i x -> if i = at then b else x) good in
  rejects "trailing byte" (good ^ "\000");
  rejects "truncation" (String.sub good 0 (n - 1));
  (* the first shape's tag follows the sample and the list length *)
  rejects "bad variant tag" (with_byte (String.length sample_bytes + 8) '\003');
  rejects "bad enum tag" (with_byte (n - 9) '\002');
  rejects "conv rejection"
    (encode ~magic:"" (triple sample (list shape) (pair colour int)) (s0, [], (`Red, 7)))

let test_codec_corrupt () =
  (match Snap.Snapshot.decode "not a snapshot" with
  | exception Snap.Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "garbage accepted");
  let s = scenario "benign" in
  let os = s.start () in
  let good = Snap.Snapshot.encode (Snap.Snapshot.checkpoint os) in
  let truncated = String.sub good 0 (String.length good / 2) in
  match Snap.Snapshot.decode truncated with
  | exception Snap.Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncated snapshot accepted"

(* --- Pinned wire format ----------------------------------------------------- *)

(* One event of each constructor, so the pinned blob covers every case of
   the event encoding. *)
let every_event : Kernel.Event_log.event list =
  [
    Exec_shell { pid = 1; path = "/bin/sh" };
    Injection_detected { pid = 1; eip = 0x0804_8000; mode = "break" };
    Shellcode_dump { pid = 1; eip = 0x0804_8000; bytes = "\x31\xc0\xcd\x80" };
    Forensic_injected { pid = 1; new_eip = 0x0804_9000 };
    Recovery_invoked { pid = 2; handler = 0x0804_a000; faulting_eip = -1 };
    Execution_trail { pid = 2; eips = [ 1; -2; max_int / 2 ] };
    Signal_delivered { pid = 2; signal = "SIGSEGV" };
    Syscall_traced { pid = 3; name = "write"; info = "fd=1 len=5" };
    Process_exited { pid = 3; status = "exit 0" };
    Library_rejected { name = "libevil.so" };
    Fault_detected { pid = 4; kind = "ecc"; action = "corrected" };
    Note "";
  ]

(* [encode (checkpoint ~meta ~trigger os)] after 1500 instructions of
   [name], optionally with the event log replaced by [events]. *)
let pinned_blob ?events name =
  let os = (scenario name).start () in
  ignore (Kernel.Os.run ~fuel:1500 os);
  Option.iter (Kernel.Event_log.set_events (Kernel.Os.log os)) events;
  let trigger = { Snap.Snapshot.t_pid = 1; t_eip = 0x0804_8123; t_mode = "pin" } in
  Snap.Snapshot.encode
    (Snap.Snapshot.checkpoint ~meta:[ ("scenario", name); ("k", "") ] ~trigger os)

(* MD5 of each blob; "every-event" is benign with [every_event] as its
   log. These change only with a deliberate format change (which also
   bumps [Snapshot.version]). *)
let pinned_digests =
  [
    ("benign", "dbe9d55a97ff5523adab7e1ea91111d3");
    ("attack-break", "8fe031e8b8e6151e9bee0b0be17ca081");
    ("attack-forensics", "77cda0c37de335de76e825456f786de5");
    ("attack-observe", "bccee4f679d314ceb13d5ed65f695a32");
    ("reuse-rop", "72f2257d89ad1560117a0f1dc4c6be39");
    ("reuse-rop-cfi", "787de977273d3db39b8cbc8b65bbf0fc");
    ("reuse-fptr-cfi", "3daaa3fc1787b5510d2e9e711324d948");
    ("scale", "e2d9f2d5d79cfc47780298afa4e47bba");
    ("every-event", "2852c292847e408dbcff0000a5b8b175");
  ]

let test_pinned_format () =
  let blob name =
    if name = "every-event" then pinned_blob ~events:every_event "benign"
    else pinned_blob name
  in
  Alcotest.(check (list string))
    "every Snap.Scenario is pinned"
    (Snap.Scenario.names @ [ "every-event" ])
    (List.map fst pinned_digests);
  Alcotest.(check (list (pair string string)))
    "digests" pinned_digests
    (List.map
       (fun (name, _) -> (name, Digest.to_hex (Digest.string (blob name))))
       pinned_digests)

(* --- Decode fuzz ---------------------------------------------------------- *)

(* Hostile bytes end in [Codec.Corrupt] and nothing else. The subject is a
   small live machine (64 frames, one split-memory guest mid-run, every
   event constructor, meta and a trigger) so that every offset can be
   tried: truncation there, which covers every section boundary, and the
   8-byte field there inflated to [max_int] or 2^40, which covers every
   length prefix (byte 32 is the protection string's). Random byte flips
   cover the rest. Every blob that does decode is restored into a fresh
   machine of the same build: [restore] may raise [Codec.Corrupt], or
   [Invalid_argument] when the blob no longer matches that machine's
   configuration, and nothing else. *)
(* The fuzz subject, and a fresh machine of the same build to restore
   into. *)
let fuzz_fresh () =
  Kernel.Os.create ~frames:64 ~protection:(Defense.to_protection Defense.split_standalone) ()

let fuzz_subject () =
  let os = fuzz_fresh () in
  ignore (Kernel.Os.spawn os (Workload.Guests.scale_unit ~ro_pages:1 ~rounds:1000 ()));
  ignore (Kernel.Os.run ~fuel:1500 os);
  Kernel.Event_log.set_events (Kernel.Os.log os) every_event;
  let trigger = { Snap.Snapshot.t_pid = 1; t_eip = 0x0804_8123; t_mode = "fuzz" } in
  (os, Snap.Snapshot.encode (Snap.Snapshot.checkpoint ~meta:[ ("k", "v") ] ~trigger os))

let int_bytes v = Snap.Codec.(encode ~magic:"" int v)

let test_decode_fuzz () =
  let fresh = fuzz_fresh in
  let _, blob = fuzz_subject () in
  let n = String.length blob in
  let escapes = ref [] and restored = ref 0 in
  let escape what e = escapes := Fmt.str "%s: %s" what (Printexc.to_string e) :: !escapes in
  let restore what snap =
    let os = fresh () in
    let compatible = Result.is_ok (Snap.Snapshot.compatible os snap) in
    match Snap.Snapshot.restore os snap with
    | () -> incr restored
    | exception Snap.Codec.Corrupt _ -> ()
    | exception Invalid_argument _ when not compatible -> ()
    | exception e -> escape (what ^ ", restored") e
  in
  let decode what s =
    match Snap.Snapshot.decode s with
    | snap -> restore what snap
    | exception Snap.Codec.Corrupt _ -> ()
    | exception e -> escape what e
  in
  let patch i bytes =
    let b = Bytes.of_string blob in
    Bytes.blit_string bytes 0 b i (min (String.length bytes) (n - i));
    Bytes.unsafe_to_string b
  in
  for i = 0 to n do
    decode (Fmt.str "truncated to %d bytes" i) (String.sub blob 0 i);
    List.iter
      (fun v -> decode (Fmt.str "%d at byte %d" v i) (patch i (int_bytes v)))
      [ max_int; 1 lsl 40 ]
  done;
  let rng = Random.State.make [| 18 |] in
  for _ = 1 to 2000 do
    let b = Bytes.of_string blob in
    for _ = 0 to Random.State.int rng 4 do
      Bytes.set_uint8 b (Random.State.int rng n) (Random.State.int rng 256)
    done;
    decode "byte flips" (Bytes.to_string b)
  done;
  Alcotest.(check (list string)) "only Codec.Corrupt escapes" [] (List.rev !escapes);
  Alcotest.(check bool) (Fmt.str "blobs restored (%d)" !restored) true (!restored > 0)

(* A blob that decodes but carries a value [restore] would index or size
   by, or a TLB state that does not fit its TLB, raises [Codec.Corrupt]
   before the machine is touched: the machine still checkpoints to a
   fresh one's bytes. Each case
   splices one well-formed but out-of-range field into the fuzz subject's
   blob, located by its encoding (taken from the live machine). *)
let test_hostile_restore () =
  let os, blob = fuzz_subject () in
  let ints l = String.concat "" (List.map int_bytes l) in
  let int_array a = int_bytes (Array.length a) ^ ints (Array.to_list a) in
  let splice needle by =
    let n = String.length needle in
    let rec find i =
      if i + n > String.length blob then Alcotest.failf "field not found in the blob"
      else if String.sub blob i n = needle then i
      else find (i + 1)
    in
    let i = find 0 in
    String.sub blob 0 i ^ by ^ String.sub blob (i + n) (String.length blob - i - n)
  in
  let p = List.hd (Kernel.Os.procs os) in
  let gpr = p.regs.gpr and trace = p.trail.ring in
  let trail = int_array trace ^ int_bytes p.trail.pos in
  let alloc = Kernel.Frame_alloc.export (Kernel.Os.alloc os) in
  let refcounts l =
    int_bytes (List.length l)
    ^ ints (List.concat_map (fun (f, c) -> [ f; c ]) l)
    ^ int_bytes alloc.s_peak_in_use
  in
  let r0, r1, rest =
    match alloc.s_refcounts with
    | r0 :: r1 :: rest -> (r0, r1, rest)
    | _ -> Alcotest.fail "fewer than two frames in use"
  in
  let with_refcounts l = splice (refcounts alloc.s_refcounts) (refcounts l) in
  let phys = Kernel.Os.phys os in
  let page = Hw.Phys.page_size phys in
  let f0, f1 =
    match
      List.filter
        (fun frame -> not (Hw.Phys.is_zero_frame phys ~frame))
        (List.init (Hw.Phys.frame_count phys) Fun.id)
    with
    | f0 :: f1 :: _ -> (f0, f1)
    | _ -> Alcotest.fail "fewer than two written frames"
  in
  let frame f = int_bytes f ^ int_bytes page ^ Hw.Phys.to_string phys ~frame:f in
  let dtlb = Hw.Tlb.export (Hw.Mmu.dtlb (Kernel.Os.mmu os)) in
  (* an entry as the blob stores it: the five fields of its word, with
     [frame] in place of the word's own *)
  let entry ?frame (vpn, w) =
    let bit b = Snap.Codec.(encode ~magic:"" bool (w land b <> 0)) in
    let frame = Option.value frame ~default:(Hw.Tlb.frame_of_word w) in
    int_bytes vpn ^ int_bytes frame ^ bit Hw.Tlb.pte_user ^ bit Hw.Tlb.pte_writable
    ^ bit Hw.Tlb.pte_nx
  in
  let entries l = int_bytes (List.length l) ^ String.concat "" (List.map entry l) in
  let tlb_entries = entries dtlb.s_entries in
  let first, others =
    match dtlb.s_entries with e :: l -> (e, l) | [] -> Alcotest.fail "the dtlb holds no entry"
  in
  (* the dtlb with its oldest entry replaced *)
  let with_first ?frame e =
    splice tlb_entries
      (int_bytes (List.length dtlb.s_entries) ^ entry ?frame e
      ^ String.concat "" (List.map entry others))
  in
  let cases =
    [
      ( "7 registers",
        splice
          (int_array gpr ^ int_bytes p.regs.eip)
          (int_array (Array.sub gpr 0 7) ^ int_bytes p.regs.eip) );
      ("trace position = length", splice trail (int_array trace ^ int_bytes (Array.length trace)));
      ("trace position -1", splice trail (int_array trace ^ int_bytes (-1)));
      ("empty trace", splice trail (int_array [||] ^ int_bytes 0));
      ("refcount for frame 0", with_refcounts ((0, snd r0) :: r1 :: rest));
      ("refcount for frame 64", with_refcounts (r0 :: r1 :: rest @ [ (64, 1) ]));
      ("refcounts out of order", with_refcounts (r1 :: r0 :: rest));
      ("refcount repeated", with_refcounts (r0 :: r0 :: r1 :: rest));
      ("zero refcount", with_refcounts ((fst r0, 0) :: r1 :: rest));
      ("frame index 64", splice (frame f0) (int_bytes 64 ^ String.sub (frame f0) 8 (8 + page)));
      ("frames out of order", splice (frame f0 ^ frame f1) (frame f1 ^ frame f0));
      ( "short frame",
        splice (frame f0)
          (int_bytes f0 ^ int_bytes (page - 1)
          ^ String.sub (Hw.Phys.to_string phys ~frame:f0) 1 (page - 1)) );
      ("dtlb vpn cached twice", splice tlb_entries (entries (first :: dtlb.s_entries)));
      ( "65 dtlb entries for 64 slots",
        splice tlb_entries (entries (List.init 65 (fun i -> (0x10_0000 + i, snd first)))) );
      (* a corrupted entry caching a frame past physical memory: restored,
         the run would crash in Phys with an escaped Invalid_argument *)
      ("dtlb frame 2^30", with_first ~frame:(1 lsl 30) first);
      ("dtlb frame 64", with_first ~frame:64 first);
      ("dtlb vpn -1", with_first (-1, snd first));
    ]
  in
  let bytes os = Snap.Snapshot.(encode (checkpoint os)) in
  let untouched = bytes (fuzz_fresh ()) in
  List.iter
    (fun (what, hostile) ->
      match Snap.Snapshot.decode hostile with
      | exception e ->
        Alcotest.failf "%s: the spliced blob does not decode (%s)" what (Printexc.to_string e)
      | snap -> (
        let os = fuzz_fresh () in
        match Snap.Snapshot.restore os snap with
        | exception Snap.Codec.Corrupt _ ->
          if bytes os <> untouched then Alcotest.failf "%s: the machine was touched" what
        | () -> Alcotest.failf "%s: restored" what
        | exception e -> Alcotest.failf "%s: %s escaped" what (Printexc.to_string e)))
    cases;
  (* a frame no PTE word can hold (a negative one would restore as a slot
     that always misses) fails to decode *)
  List.iter
    (fun frame ->
      match Snap.Snapshot.decode (with_first ~frame first) with
      | exception Snap.Codec.Corrupt _ -> ()
      | _ -> Alcotest.failf "dtlb frame %d decoded" frame)
    [ -1; (1 lsl 51) + 1 ]

(* An allocator imported from another's export, over one that has
   allocated frames of its own, is the same allocator: the same counts,
   and the same frames handed out next, single and paired. *)
let test_alloc_import () =
  let fresh () = Kernel.Frame_alloc.create (Hw.Phys.create ~frames:128 ()) in
  let a = fresh () in
  let frames = List.init 40 (fun _ -> Kernel.Frame_alloc.alloc a) in
  List.iteri
    (fun i f ->
      if i mod 3 = 0 then Kernel.Frame_alloc.decref a f
      else if i mod 5 = 0 then Kernel.Frame_alloc.incref a f)
    frames;
  let b = fresh () in
  for _ = 1 to 70 do
    ignore (Kernel.Frame_alloc.alloc b)
  done;
  Kernel.Frame_alloc.import b (Kernel.Frame_alloc.export a);
  let counts t = Kernel.Frame_alloc.(free_frames t, in_use t, peak_in_use t) in
  Alcotest.(check (triple int int int)) "free, in use, peak" (counts a) (counts b);
  let next t = Kernel.Frame_alloc.(alloc t, alloc_pair t, alloc t) in
  Alcotest.(check (triple int (pair int int) int)) "next frames" (next a) (next b)

(* Canonical serialization: checkpointing a restored machine re-encodes to
   the exact same bytes — there is no hidden state the format misses. *)
let test_canonical_reencode () =
  let s = scenario "attack-forensics" in
  let os = s.start () in
  ignore (Kernel.Os.run ~fuel:1500 os);
  let e1 = Snap.Snapshot.encode (Snap.Snapshot.checkpoint os) in
  let os2 = s.start () in
  Snap.Snapshot.restore os2 (Snap.Snapshot.decode e1);
  let e2 = Snap.Snapshot.encode (Snap.Snapshot.checkpoint os2) in
  Alcotest.(check int) "same size" (String.length e1) (String.length e2);
  Alcotest.(check bool) "bit-identical re-encode" true (String.equal e1 e2)

(* --- Determinism regression (satellite) ---------------------------------- *)

(* Two from-scratch runs of the same scenario: identical cycles, event
   logs, and metrics snapshots. Guards replay correctness and any future
   perf PR against nondeterminism creeping into the simulator. *)
let test_run_to_run_determinism name () =
  let once () =
    let obs = Obs.create () in
    let s = scenario name in
    let os = s.start ~obs () in
    let final = run_to_end os in
    let metrics =
      Obs.Json.to_string (Obs.Metrics.to_json (Obs.snapshot obs))
    in
    (final, metrics)
  in
  let (f1, m1) = once () in
  let (f2, m2) = once () in
  Alcotest.(check string) "machine state" f1 f2;
  Alcotest.(check string) "metrics snapshots" m1 m2

(* --- Sparse frames ------------------------------------------------------- *)

let test_sparse_skip () =
  let s = scenario "benign" in
  let os = s.start () in
  ignore (Kernel.Os.run ~fuel:1500 os);
  let snap = Snap.Snapshot.checkpoint os in
  let written = Snap.Snapshot.frames_written snap in
  let skipped = Snap.Snapshot.frames_sparse_skipped snap in
  Alcotest.(check int)
    "written + skipped = total" (Snap.Snapshot.frame_count snap) (written + skipped);
  Alcotest.(check bool) "some frames written" true (written > 0);
  Alcotest.(check bool)
    (Fmt.str "sparse dominates (%d written, %d skipped)" written skipped)
    true
    (skipped > written)

(* --- The replay check's reach --------------------------------------------- *)

(* [Replay.check] resumes only from mid-run: reuse-fptr-cfi's boundaries
   fall at 0, 198 and 398 instructions and its run ends at 512, so a
   checkpoint wanted at 398 replays, one at 400 would fall on the last
   cycle and one at [max_int] is never reached. *)
let test_check_needs_mid_run () =
  let check at = Snap.Replay.check ~at (scenario "reuse-fptr-cfi").start in
  Alcotest.(check (list bool)) "ok" [ true; false; false ]
    (List.map (fun at -> Snap.Replay.ok (check at)) [ 398; 400; max_int ]);
  Alcotest.(check string) "reported"
    "replay FAILED: the run ended before a scheduler boundary past 400 instructions"
    (Fmt.str "%a" Snap.Replay.pp (check 400))

(* --- The observation's reach ---------------------------------------------- *)

(* [Replay.observe] sees state no counter does: moving one trail position
   changes only the [trails:] line, and dropping one resident DTLB entry
   (statistics kept) changes only the [dtlb:] line. *)
let test_observe_bites () =
  let os = (scenario "reuse-rop").start () in
  let stop = Kernel.Os.run ~fuel:Test_equiv.fuel os in
  let before = Snap.Replay.observe os stop in
  let changed what prefix =
    let lines = String.split_on_char '\n' in
    let diff =
      List.filter_map
        (fun (a, b) -> if a = b then None else Some a)
        (List.combine (lines before) (lines (Snap.Replay.observe os stop)))
    in
    Alcotest.(check (list string)) what [ prefix ]
      (List.map (fun l -> List.hd (String.split_on_char ' ' l)) diff)
  in
  let p = List.hd (Kernel.Os.procs os) in
  let pos = p.trail.pos in
  p.trail.pos <- (pos + 1) mod Array.length p.trail.ring;
  changed "a moved trail position" "trails:";
  p.trail.pos <- pos;
  let dtlb = Hw.Mmu.dtlb (Kernel.Os.mmu os) in
  let st = Hw.Tlb.export dtlb in
  Alcotest.(check bool) "dtlb holds entries" true (st.s_entries <> []);
  Hw.Tlb.import dtlb { st with s_entries = List.tl st.s_entries };
  changed "one dropped dtlb entry" "dtlb:"

(* --- Restore over written frames ------------------------------------------ *)

(* Restore zeroes every frame the snapshot records as zero, including ones
   the machine wrote after the checkpoint (they keep their storage but read
   as zero), and re-checkpoints to the same bytes. The block cache sees the
   same write-watch invalidations as when every frame was eagerly backed:
   [pinned] holds (hits, misses, invalidations, blocks built, insns built)
   after the restore and after the rerun. *)
let test_restore_over_written_frames () =
  let pinned = ([ 42003; 36; 4; 36; 94 ], [ 83945; 72; 4; 72; 188 ]) in
  let os =
    Workload.Harness.build
      (Workload.Figures.ctxsw_spec ~defense:Defense.split_standalone ~iters:20)
  in
  ignore (Kernel.Os.run ~fuel:200 os);
  let phys = Kernel.Os.phys os in
  let frames = List.init (Hw.Phys.frame_count phys) Fun.id in
  let zero_at_checkpoint = List.filter (fun frame -> Hw.Phys.is_zero_frame phys ~frame) frames in
  let blob = Snap.Snapshot.encode (Snap.Snapshot.checkpoint os) in
  let final = run_to_end os in
  let dirtied =
    List.filter (fun frame -> not (Hw.Phys.is_zero_frame phys ~frame)) zero_at_checkpoint
  in
  Alcotest.(check bool)
    (Fmt.str "run wrote frames zero at the checkpoint (%d)" (List.length dirtied))
    true (dirtied <> []);
  Snap.Snapshot.restore os (Snap.Snapshot.decode blob);
  let zero = String.make (Hw.Phys.page_size phys) '\000' in
  Alcotest.(check (list int))
    "dirtied frames read as zero" []
    (List.filter (fun frame -> Hw.Phys.to_string phys ~frame <> zero) dirtied);
  Alcotest.(check bool)
    "re-checkpoint gives the same blob" true
    (String.equal blob (Snap.Snapshot.encode (Snap.Snapshot.checkpoint os)));
  let stats () =
    let s = Hw.Bbcache.stats (Option.get (Kernel.Os.bbcache os)) in
    [ s.hits; s.misses; s.invalidations; s.blocks_built; s.insns_built ]
  in
  let after_restore = stats () in
  Alcotest.(check string) "rerun matches" final (run_to_end os);
  Alcotest.(check (pair (list int) (list int)))
    "block-cache stats" pinned (after_restore, stats ())

(* --- Incompatible restore ------------------------------------------------ *)

let test_incompatible_restore () =
  let s = scenario "benign" in
  let os = s.start () in
  let snap = Snap.Snapshot.checkpoint os in
  let small =
    Kernel.Os.create ~frames:64
      ~protection:(Defense.to_protection s.defense)
      ()
  in
  (match Snap.Snapshot.restore small snap with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "frame-count mismatch accepted");
  let unprot =
    Kernel.Os.create ~protection:(Defense.to_protection Defense.unprotected) ()
  in
  match Snap.Snapshot.restore unprot snap with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "protection mismatch accepted"

(* --- Auto-checkpoint ring ------------------------------------------------ *)

let test_ring () =
  let s = scenario "benign" in
  let os = s.start () in
  let ring = Snap.Ring.install ~every_cycles:1500 ~keep:3 os in
  let final = run_to_end os in
  let snaps = Snap.Ring.snapshots ring in
  Alcotest.(check bool)
    (Fmt.str "several taken (%d)" (Snap.Ring.taken ring))
    true
    (Snap.Ring.taken ring >= 3);
  Alcotest.(check bool) "bounded" true (List.length snaps <= 3);
  Alcotest.(check int) "evicted = taken - kept"
    (Snap.Ring.taken ring - List.length snaps)
    (Snap.Ring.evicted ring);
  (* ascending capture cycles, oldest first *)
  let cycles = List.map Snap.Snapshot.cycle snaps in
  Alcotest.(check (list int)) "oldest first" (List.sort compare cycles) cycles;
  Snap.Ring.uninstall ring;
  (* warm-start from the newest retained snapshot reaches the identical end
     state *)
  match Snap.Ring.latest ring with
  | None -> Alcotest.fail "no snapshot retained"
  | Some snap ->
    let os2 = s.start () in
    Snap.Snapshot.restore os2 snap;
    Alcotest.(check string) "warm start converges" final (run_to_end os2)

(* --- Forensic capture ---------------------------------------------------- *)

(* The ISSUE acceptance criterion: the payload diff's extracted bytes equal
   the injected shellcode, captured at the detection instant. *)
let test_forensic_capture () =
  let s = scenario "attack-break" in
  let os = s.start () in
  let captures = Snap.Forensics.arm os in
  ignore (run_to_end os);
  match !captures with
  | [] -> Alcotest.fail "no capture despite detection"
  | c :: _ ->
    Alcotest.(check int) "trigger eip = landing address" Snap.Scenario.payload_landing
      c.c_trigger.t_eip;
    Alcotest.(check string) "extracted bytes = injected shellcode"
      Snap.Scenario.injected_payload c.c_payload;
    Alcotest.(check bool) "diff present" true (c.c_diff <> None);
    (* the snapshot froze the machine with the detection in its log *)
    let events = ref [] in
    let os2 = s.start () in
    Snap.Snapshot.restore os2 c.c_snapshot;
    List.iter
      (fun e -> events := Fmt.str "%a" Kernel.Event_log.pp_event e :: !events)
      (Kernel.Event_log.to_list (Kernel.Os.log os2));
    Alcotest.(check bool) "detection event in snapshot" true
      (List.exists (contains ~affix:"code injection detected") !events)

let test_forensic_artifacts () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "snap-test-forensics" in
  let s = scenario "attack-forensics" in
  let os = s.start () in
  let captures = Snap.Forensics.arm ~dir os in
  ignore (run_to_end os);
  Alcotest.(check int) "one capture" 1 (List.length !captures);
  let file name = Filename.concat dir name in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " written") true (Sys.file_exists (file name)))
    [
      "capture-0.snap";
      "capture-0.snap.manifest.json";
      "capture-0.payload.bin";
      "capture-0.diff.json";
    ];
  let payload =
    In_channel.with_open_bin (file "capture-0.payload.bin") In_channel.input_all
  in
  Alcotest.(check string) "payload file = injected shellcode"
    Snap.Scenario.injected_payload payload;
  (* the manifest records the trigger *)
  let manifest =
    In_channel.with_open_text (file "capture-0.snap.manifest.json") In_channel.input_all
  in
  match Obs.Json.of_string (String.trim manifest) with
  | Error e -> Alcotest.failf "manifest does not parse: %s" e
  | Ok j ->
    Alcotest.(check bool) "manifest has trigger" true
      (match Obs.Json.member "trigger" j with
      | Some (Obs.Json.Obj _) -> true
      | _ -> false)

(* --- Files, manifest, obs metrics ---------------------------------------- *)

let test_save_load () =
  let file = Filename.temp_file "snap-test" ".snap" in
  let s = scenario "attack-observe" in
  let os = s.start () in
  ignore (Kernel.Os.run ~fuel:1500 os);
  let snap =
    Snap.Snapshot.checkpoint
      ~meta:[ ("scenario", "attack-observe"); ("state", "ST\000\255") ]
      os
  in
  let bytes = Snap.Snapshot.save ~file snap in
  Alcotest.(check bool) "nonempty" true (bytes > 0);
  let loaded = Snap.Snapshot.load file in
  Alcotest.(check string) "encode(load) = encode(saved)"
    (Snap.Snapshot.encode snap) (Snap.Snapshot.encode loaded);
  Alcotest.(check (option string)) "meta survives" (Some "attack-observe")
    (Snap.Snapshot.find_meta loaded "scenario");
  let manifest =
    In_channel.with_open_text (file ^ ".manifest.json") In_channel.input_all
  in
  (match Obs.Json.of_string (String.trim manifest) with
  | Error e -> Alcotest.failf "manifest does not parse: %s" e
  | Ok j ->
    Alcotest.(check (option int)) "manifest bytes field" (Some bytes)
      (Option.bind (Obs.Json.member "bytes" j) Obs.Json.to_int);
    let meta k = Option.bind (Obs.Json.member "meta" j) (Obs.Json.member k) in
    Alcotest.(check (option string)) "text meta verbatim" (Some "attack-observe")
      (Option.bind (meta "scenario") Obs.Json.to_str);
    Alcotest.(check (option int)) "binary meta as its size" (Some 4)
      (Option.bind (Option.bind (meta "state") (Obs.Json.member "bytes")) Obs.Json.to_int));
  Sys.remove file;
  Sys.remove (file ^ ".manifest.json")

let test_obs_metrics () =
  let obs = Obs.create () in
  let s = scenario "benign" in
  let os = s.start ~obs () in
  ignore (Kernel.Os.run ~fuel:1500 os);
  let snap = Snap.Snapshot.checkpoint os in
  Snap.Snapshot.restore os snap;
  let file = Filename.temp_file "snap-test-obs" ".snap" in
  let bytes = Snap.Snapshot.save ~obs ~file snap in
  Sys.remove file;
  Sys.remove (file ^ ".manifest.json");
  let counters = Obs.Metrics.counters (Obs.metrics obs) in
  let counter name = List.assoc_opt name counters in
  Alcotest.(check (option int)) "snap.checkpoints" (Some 1) (counter "snap.checkpoints");
  Alcotest.(check (option int)) "snap.restores" (Some 1) (counter "snap.restores");
  Alcotest.(check (option int)) "snap.bytes_written" (Some bytes)
    (counter "snap.bytes_written");
  Alcotest.(check bool) "sparse skip counted" true
    (match counter "snap.frames_sparse_skipped" with Some n -> n > 0 | None -> false);
  let histo_names =
    List.map (fun (h : Obs.Metrics.histogram) -> h.h_name)
      (Obs.Metrics.histograms (Obs.metrics obs))
  in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " registered") true (List.mem n histo_names))
    [ "snap.checkpoint_us"; "snap.restore_us" ]

(* --- Injector state (lib/inject) ------------------------------------------ *)

(* An interrupted campaign run resumes to the same verdict:
   [Snap.Replay.check] with the engine riding the checkpoint (the plan and
   the engine's volatile state — PRNG cursor, budget spent, pending faults
   — in snapshot metadata, rearmed on the restored machine). The machine
   observation and the engine's full exported state must match the
   uninterrupted reference run bit-for-bit, and the checkpoint must land
   mid-plan. *)
let test_inject_rearm () =
  let s = scenario "benign" in
  let plan =
    Inject.Plan.make ~scenario:"benign" ~seed:7 ~at_cycle:500 ~every:400 ~budget:6 ()
  in
  let at_checkpoint = ref 0 and engines = ref [] in
  let ride os snap =
    let eng =
      match snap with None -> Inject.Engine.arm os plan | Some snap -> Inject.rearm os snap
    in
    engines := eng :: !engines;
    {
      Snap.Replay.snapshot =
        (fun () ->
          at_checkpoint := Inject.Engine.injected_count eng;
          Inject.checkpoint os eng);
      show = (fun () -> Inject.Engine.export eng);
    }
  in
  let report = Snap.Replay.check ~at:900 ~fuel:Test_equiv.fuel ~ride s.start in
  if not (Snap.Replay.ok report) then Alcotest.failf "%a" Snap.Replay.pp report;
  Alcotest.(check bool)
    "checkpoint lands mid-plan" true
    (!at_checkpoint > 0 && !at_checkpoint < plan.budget);
  Alcotest.(check bool)
    "the run keeps injecting after the checkpoint" true
    (List.for_all (fun e -> Inject.Engine.injected_count e > !at_checkpoint) !engines)

let test_inject_rearm_requires_meta () =
  let s = scenario "benign" in
  let os = s.start () in
  ignore (Kernel.Os.run ~fuel:900 os);
  let snap = Snap.Snapshot.checkpoint os in
  match Inject.rearm os snap with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "rearm accepted a snapshot without injector state"

(* Hostile injector metadata raises Codec.Corrupt before the engine is
   armed: no inject or guard hook, no ECC shadow. The state and plan are
   a real checkpoint's with bytes replaced (ints are 8 zigzag bytes). *)
let test_inject_rearm_hostile () =
  let s = scenario "benign" in
  let plan = Inject.Plan.make ~scenario:"benign" ~classes:[ Inject.Plan.Pte_flip ] () in
  let os = s.start () in
  let meta = Snap.Snapshot.find_meta (Inject.checkpoint os (Inject.Engine.arm os plan)) in
  let good_plan = Option.get (meta "inject.plan") in
  let good_state = Option.get (meta "inject.state") in
  let int v =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int (2 * v));
    Bytes.to_string b
  in
  (* a fresh engine's state ends with its two empty lists: pending flips,
     then the journal *)
  let flips pairs =
    String.sub good_state 0 (String.length good_state - 16)
    ^ int (List.length pairs)
    ^ String.concat "" (List.map (fun (pa, good) -> int pa ^ int good) pairs)
    ^ int 0
  in
  (* the one class tag follows the label, scenario, seed and list length *)
  let unknown_class =
    let b = Bytes.of_string good_plan in
    Bytes.set_uint8 b
      (8 + 8 + String.length plan.label + 8 + String.length plan.scenario + 8 + 8)
      (List.length Inject.Plan.all_classes);
    Bytes.to_string b
  in
  List.iter
    (fun (what, plan_blob, state_blob) ->
      let os = s.start () in
      ignore (Kernel.Os.run ~fuel:900 os);
      let snap =
        Snap.Snapshot.checkpoint
          ~meta:[ ("inject.plan", plan_blob); ("inject.state", state_blob) ]
          os
      in
      (match Inject.rearm os snap with
      | exception Snap.Codec.Corrupt _ -> ()
      | _ -> Alcotest.failf "rearm accepted %s" what);
      let m = Kernel.Os.machine os in
      Alcotest.(check bool) (what ^ ": unarmed") true
        (m.probe.inject = None && m.env.tlb_guard = None
        && not (Hw.Phys.ecc_enabled m.phys)))
    [
      ("a text state with a non-numeric flip", good_plan, "pend=abc:1");
      ("a truncated state", good_plan, String.sub good_state 0 (String.length good_state - 1));
      ("a flip off physical memory", good_plan, flips [ (1 lsl 40, 0) ]);
      ("a flip to a non-byte value", good_plan, flips [ (0, 256) ]);
      ("an unknown fault class", unknown_class, good_state);
    ];
  (* the forged list itself is well formed: an in-range flip arms *)
  let os = s.start () in
  let snap =
    Snap.Snapshot.checkpoint
      ~meta:[ ("inject.plan", good_plan); ("inject.state", flips [ (0, 0) ]) ]
      os
  in
  ignore (Inject.rearm os snap : Inject.Engine.t);
  Alcotest.(check bool) "in-range flip: armed" true
    (Hw.Phys.ecc_enabled (Kernel.Os.machine os).phys)

let suite =
  [
    Alcotest.test_case "codec round trip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec combinators" `Quick test_codec_combinators;
    Alcotest.test_case "codec rejects corrupt input" `Quick test_codec_corrupt;
    Alcotest.test_case "pinned wire format" `Quick test_pinned_format;
    Alcotest.test_case "decode fuzz: only Codec.Corrupt escapes" `Quick test_decode_fuzz;
    Alcotest.test_case "hostile restore: out-of-range values" `Quick test_hostile_restore;
    Alcotest.test_case "allocator import resumes allocation" `Quick test_alloc_import;
    Alcotest.test_case "canonical re-encode" `Quick test_canonical_reencode;
    Alcotest.test_case "determinism: benign" `Quick (test_run_to_run_determinism "benign");
    Alcotest.test_case "determinism: attack-observe" `Quick
      (test_run_to_run_determinism "attack-observe");
    Alcotest.test_case "sparse frame skipping" `Quick test_sparse_skip;
    Alcotest.test_case "observation sees trails and tlb contents" `Quick test_observe_bites;
    Alcotest.test_case "restore over written frames" `Quick test_restore_over_written_frames;
    Alcotest.test_case "incompatible restore rejected" `Quick test_incompatible_restore;
    Alcotest.test_case "auto-checkpoint ring" `Quick test_ring;
    Alcotest.test_case "forensic capture extracts payload" `Quick test_forensic_capture;
    Alcotest.test_case "forensic artifacts on disk" `Quick test_forensic_artifacts;
    Alcotest.test_case "save/load with manifest" `Quick test_save_load;
    Alcotest.test_case "obs metrics" `Quick test_obs_metrics;
    Alcotest.test_case "injector state round trip" `Quick test_inject_rearm;
    Alcotest.test_case "rearm rejects plain snapshots" `Quick
      test_inject_rearm_requires_meta;
    Alcotest.test_case "rearm rejects hostile injector metadata" `Quick
      test_inject_rearm_hostile;
    Alcotest.test_case "replay check needs a mid-run checkpoint" `Quick
      test_check_needs_mid_run;
  ]
