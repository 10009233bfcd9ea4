(* Property-based tests (qcheck, registered as alcotest cases). *)

open QCheck

(* --- generators ------------------------------------------------------------ *)

let gen_reg = Gen.oneofl Isa.Reg.all
let gen_imm32 = Gen.int_range 0 0xFFFFFFFF
let gen_disp = Gen.int_range (-0x80000000) 0x7FFFFFFF
let gen_shift = Gen.int_range 0 255
let gen_rel = gen_disp

let gen_instr : Isa.Insn.t Gen.t =
  let open Gen in
  let open Isa.Insn in
  oneof
    [
      return Nop;
      return Hlt;
      return Ret;
      map2 (fun r i -> Mov_ri (r, i)) gen_reg gen_imm32;
      map2 (fun a b -> Mov_rr (a, b)) gen_reg gen_reg;
      map3 (fun a b d -> Load (a, b, d)) gen_reg gen_reg gen_disp;
      map3 (fun b d s -> Store (b, d, s)) gen_reg gen_disp gen_reg;
      map3 (fun a b d -> Loadb (a, b, d)) gen_reg gen_reg gen_disp;
      map3 (fun b d s -> Storeb (b, d, s)) gen_reg gen_disp gen_reg;
      map (fun r -> Push r) gen_reg;
      map (fun r -> Pop r) gen_reg;
      map3 (fun a b d -> Lea (a, b, d)) gen_reg gen_reg gen_disp;
      map2 (fun a b -> Add (a, b)) gen_reg gen_reg;
      map2 (fun a b -> Sub (a, b)) gen_reg gen_reg;
      map2 (fun r i -> Add_ri (r, i)) gen_reg gen_disp;
      map2 (fun a b -> Cmp (a, b)) gen_reg gen_reg;
      map2 (fun r i -> Cmp_ri (r, i)) gen_reg gen_disp;
      map2 (fun a b -> And_ (a, b)) gen_reg gen_reg;
      map2 (fun a b -> Or_ (a, b)) gen_reg gen_reg;
      map2 (fun a b -> Xor (a, b)) gen_reg gen_reg;
      map2 (fun a b -> Mul (a, b)) gen_reg gen_reg;
      map2 (fun r i -> Shl (r, i)) gen_reg gen_shift;
      map2 (fun r i -> Shr (r, i)) gen_reg gen_shift;
      map (fun d -> Jmp (Rel d)) gen_rel;
      map (fun d -> Jz (Rel d)) gen_rel;
      map (fun d -> Jnz (Rel d)) gen_rel;
      map (fun d -> Jl (Rel d)) gen_rel;
      map (fun d -> Jge (Rel d)) gen_rel;
      map (fun r -> Jmp_r r) gen_reg;
      map (fun d -> Call (Rel d)) gen_rel;
      map (fun r -> Call_r r) gen_reg;
      map (fun n -> Int n) (Gen.int_range 0 255);
    ]

let arb_instr = make ~print:Isa.Insn.to_string gen_instr

(* --- properties ------------------------------------------------------------ *)

let prop_encode_decode_roundtrip =
  Test.make ~name:"encode/decode roundtrip" ~count:2000 arb_instr (fun insn ->
      let bytes = Isa.Encode.to_string insn in
      String.length bytes = Isa.Insn.size insn
      && match Isa.Decode.of_string bytes 0 with Ok i -> i = insn | Error _ -> false)

let prop_program_roundtrip =
  Test.make ~name:"program layout and sequential decode" ~count:200
    (make Gen.(list_size (int_range 1 40) gen_instr))
    (fun instrs ->
      let prog = List.map (fun i -> Isa.Asm.I i) instrs in
      let a = Isa.Asm.assemble ~origin:0 prog in
      let total = List.fold_left (fun acc i -> acc + Isa.Insn.size i) 0 instrs in
      String.length a.code = total
      &&
      let rec decode_all pos acc =
        if pos >= total then List.rev acc
        else
          match Isa.Decode.of_string a.code pos with
          | Ok i -> decode_all (pos + Isa.Insn.size i) (i :: acc)
          | Error _ -> List.rev acc
      in
      decode_all 0 [] = instrs)

let prop_sign_mask =
  Test.make ~name:"sign32/mask32 agreement" ~count:1000
    (make Gen.(int_range (-0x80000000) 0x7FFFFFFF))
    (fun x ->
      let m = Isa.Encode.mask32 x in
      Isa.Decode.sign32 m = x && Isa.Encode.mask32 m = m)

type tlb_op = Insert of int * int | Invalidate of int | Flush | Lookup of int

let gen_tlb_op =
  Gen.(
    oneof
      [
        map2 (fun v f -> Insert (v, f)) (int_range 0 30) (int_range 1 100);
        map (fun v -> Invalidate v) (int_range 0 30);
        return Flush;
        map (fun v -> Lookup v) (int_range 0 30);
      ])

let prop_tlb_capacity =
  Test.make ~name:"tlb never exceeds capacity; latest insert wins" ~count:500
    (make Gen.(list_size (int_range 1 200) gen_tlb_op))
    (fun ops ->
      let tlb = Hw.Tlb.create ~name:"prop" ~capacity:8 () in
      let model = Hashtbl.create 16 in
      List.for_all
        (fun op ->
          (match op with
          | Insert (v, f) ->
            Hw.Tlb.fill tlb v (Hw.Tlb.word ~frame:f ~writable:true ~user:true ~nx:false);
            Hashtbl.replace model v f
          | Invalidate v ->
            Hw.Tlb.invalidate tlb v;
            Hashtbl.remove model v
          | Flush ->
            Hw.Tlb.flush tlb;
            Hashtbl.reset model
          | Lookup v -> ignore (Hw.Tlb.find tlb v : int));
          Hw.Tlb.size tlb <= 8
          &&
          (* anything cached must agree with the model (eviction may drop
             entries, but never corrupt them) *)
          Hashtbl.fold
            (fun v f ok ->
              let w = Hw.Tlb.peek tlb v in
              ok && (w < 0 || Hw.Tlb.frame_of_word w = f))
            model true)
        ops)

let prop_signature =
  Test.make ~name:"signature verifies and detects tampering" ~count:300
    (make Gen.(pair (list_size (int_range 1 5) string_small) small_nat))
    (fun (parts, flip) ->
      let s = Kernel.Signature.sign parts in
      Kernel.Signature.verify parts s
      &&
      match parts with
      | [] -> true
      | first :: rest when String.length first > 0 ->
        let i = flip mod String.length first in
        let tampered =
          String.mapi
            (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c)
            first
        in
        not (Kernel.Signature.verify (tampered :: rest) s)
      | _ -> true)

let prop_pipe_fifo =
  Test.make ~name:"pipe preserves byte order and bounds" ~count:300
    (make Gen.(list_size (int_range 1 30) (pair string_small (int_range 1 64))))
    (fun chunks ->
      let pipe = Kernel.Pipe.create ~capacity:128 ~name:"prop" () in
      let written = Buffer.create 64 and read = Buffer.create 64 in
      List.iter
        (fun (s, rd) ->
          let n = Kernel.Pipe.write pipe s in
          Buffer.add_string written (String.sub s 0 n);
          Buffer.add_string read (Kernel.Pipe.read pipe ~max:rd))
        chunks;
      Buffer.add_string read (Kernel.Pipe.drain pipe);
      Kernel.Pipe.level pipe = 0 && Buffer.contents read = Buffer.contents written)

(* Split-page invariant: no sequence of kernel/user data writes can alter
   the code copy. *)
let prop_split_writes_never_touch_code_copy =
  Test.make ~name:"data writes never reach the code copy" ~count:100
    (make Gen.(list_size (int_range 1 30) (pair (int_range 0 4000) (int_range 0 255))))
    (fun writes ->
      let k = Kernel.Os.create ~protection:(Split_memory.protection ()) () in
      let image =
        Kernel.Image.build ~name:"prop"
          ~code:(fun ~lbl:_ -> Isa.Asm.[ L "main"; I Nop ] @ Guest.sys_exit 0)
          ~entry:"main" ()
      in
      let p = Kernel.Os.spawn k image in
      let base = Kernel.Layout.heap_base in
      List.iter
        (fun (off, v) -> Kernel.Os.copy_to_user k p (base + off) (String.make 1 (Char.chr v)))
        writes;
      match Kernel.Aspace.pte p.aspace (base / 4096) with
      | Some ({ split = Some s; _ } : Kernel.Pte.t) ->
        Hw.Phys.to_string (Kernel.Os.phys k) ~frame:s.code_frame
        = String.make 4096 '\000'
      | _ -> false)

(* Zero-fill on demand is invisible: random sequences of every Phys
   mutation path, with ECC switched on and off, read exactly as an eager
   reference that holds one [Bytes] per frame (and one per shadow frame)
   does. The last frame is never written, so it reads the shared zero
   page: at the end it must still be all zero, and only frames some
   operation wrote may have their own storage. *)
type phys_op =
  | W8 of int * int * int
  | W32 of int * int * int
  | W8_at of int * int
  | W32_at of int * int
  | Fill of int * int
  | Blit_string of int * int * string
  | Write_from of int * int * string * int
  | Blit_bytes of int * string
  | Copy of int * int
  | Flip of int * int * int
  | Shadow_w8 of int * int * int
  | R8 of int * int
  | R32 of int * int
  | R8_at of int
  | R32_at of int
  | Read_into of int * int * int
  | Ecc of bool

let phys_ps = 64
let phys_frames = 6

let gen_phys_op =
  let open Gen in
  let frame = int_range 0 (phys_frames - 2) in
  (* half the accesses land in the first 8 bytes, so reads meet writes *)
  let near hi = oneof [ int_range 0 7; int_range 0 hi ] in
  let off = near (phys_ps - 1) and off32 = near (phys_ps - 4) in
  let byte = oneof [ return 0; int_range 0 255 ] in
  let word = oneof [ return 0; int_range 0 0xFFFF_FFFF ] in
  let paddr32 = map2 (fun f o -> (f * phys_ps) + o) frame off32 in
  let bytes n = string_size ~gen:(oneof [ return '\000'; char ]) (int_range 0 n) in
  let span = int_range 0 phys_ps >>= fun o -> map (fun s -> (o, s)) (bytes (phys_ps - o)) in
  oneof
    [
      map3 (fun f o v -> W8 (f, o, v)) frame off byte;
      map3 (fun f o v -> W32 (f, o, v)) frame off32 word;
      map2 (fun a v -> W8_at (a, v)) paddr32 byte;
      map2 (fun a v -> W32_at (a, v)) paddr32 word;
      map2 (fun f v -> Fill (f, v)) frame byte;
      map2 (fun f (o, s) -> Blit_string (f, o, s)) frame span;
      map3
        (fun f (o, s) pos -> Write_from (f, o, "xy" ^ s, 2 - (pos mod 3)))
        frame span (int_range 0 2);
      map2 (fun f s -> Blit_bytes (f, s)) frame (bytes phys_ps);
      map2 (fun a b -> Copy (a, b)) (int_range 0 (phys_frames - 1)) frame;
      map3 (fun f o b -> Flip (f, o, b)) frame off (int_range 0 7);
      map3 (fun f o v -> Shadow_w8 (f, o, v)) frame off byte;
      map2 (fun f o -> R8 (f, o)) (int_range 0 (phys_frames - 1)) off;
      map2 (fun f o -> R32 (f, o)) frame off32;
      map (fun a -> R8_at a) paddr32;
      map (fun a -> R32_at a) paddr32;
      map3 (fun f o n -> Read_into (f, o, n)) frame off (int_range 0 4);
      map (fun on -> Ecc on) bool;
    ]

let pp_phys_op = function
  | W8 (f, o, v) -> Fmt.str "write8 %d %d %d" f o v
  | W32 (f, o, v) -> Fmt.str "write32 %d %d %#x" f o v
  | W8_at (a, v) -> Fmt.str "write8_at %d %d" a v
  | W32_at (a, v) -> Fmt.str "write32_at %d %#x" a v
  | Fill (f, v) -> Fmt.str "fill %d %d" f v
  | Blit_string (f, o, s) -> Fmt.str "blit_from_string %d %d %S" f o s
  | Write_from (f, o, s, pos) -> Fmt.str "write_from %d %d %S %d" f o s pos
  | Blit_bytes (f, s) -> Fmt.str "blit_from_bytes %d %S" f s
  | Copy (a, b) -> Fmt.str "copy_frame %d -> %d" a b
  | Flip (f, o, b) -> Fmt.str "flip_bit %d %d %d" f o b
  | Shadow_w8 (f, o, v) -> Fmt.str "ecc_shadow_write8 %d %d %d" f o v
  | R8 (f, o) -> Fmt.str "read8 %d %d" f o
  | R32 (f, o) -> Fmt.str "read32 %d %d" f o
  | R8_at a -> Fmt.str "read8_at %d" a
  | R32_at a -> Fmt.str "read32_at %d" a
  | Read_into (f, o, n) -> Fmt.str "read_into %d %d %d" f o n
  | Ecc on -> Fmt.str "ecc %b" on

let prop_phys_zero_page =
  Test.make ~name:"phys: zero-fill on demand matches an eager reference" ~count:500
    (make
       ~print:Print.(pair bool (list pp_phys_op))
       Gen.(pair bool (list_size (int_range 1 80) gen_phys_op)))
    (fun (ecc, ops) ->
      let ps = phys_ps and n = phys_frames in
      let t = Hw.Phys.create ~page_size:ps ~frames:n () in
      let prim = Array.init n (fun _ -> Bytes.make ps '\000') in
      let shadow = ref None and corrections = ref 0 in
      let written = Array.make n false in
      let set_ecc on =
        if on then Hw.Phys.enable_ecc t else Hw.Phys.disable_ecc t;
        shadow := if on then Some (Array.map Bytes.copy prim) else None;
        corrections := 0
      in
      set_ecc ecc;
      (* the reference: [store] writes both copies, [scrub] corrects the
         primary from the shadow before a read *)
      let store f o s =
        written.(f) <- true;
        Bytes.blit_string s 0 prim.(f) o (String.length s);
        Option.iter (fun sh -> Bytes.blit_string s 0 sh.(f) o (String.length s)) !shadow
      in
      let scrub f o len =
        Option.iter
          (fun sh ->
            for i = o to o + len - 1 do
              if Bytes.get prim.(f) i <> Bytes.get sh.(f) i then begin
                written.(f) <- true;
                Bytes.set prim.(f) i (Bytes.get sh.(f) i);
                incr corrections
              end
            done)
          !shadow
      in
      let read f o len =
        scrub f o len;
        Bytes.sub_string prim.(f) o len
      in
      let le32 v = String.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 0xFF)) in
      let int32_of s = String.get_int32_le s 0 |> Int32.to_int |> ( land ) 0xFFFF_FFFF in
      let split a = (a / ps, a mod ps) in
      let step = function
        | W8 (f, o, v) ->
          Hw.Phys.write8 t ~frame:f ~off:o v;
          store f o (String.make 1 (Char.chr v));
          true
        | W32 (f, o, v) ->
          Hw.Phys.write32 t ~frame:f ~off:o v;
          store f o (le32 v);
          true
        | W8_at (a, v) ->
          Hw.Phys.write8_at t a v;
          let f, o = split a in
          store f o (String.make 1 (Char.chr v));
          true
        | W32_at (a, v) ->
          Hw.Phys.write32_at t a v;
          let f, o = split a in
          store f o (le32 v);
          true
        | Fill (f, v) ->
          Hw.Phys.fill t ~frame:f v;
          store f 0 (String.make ps (Char.chr v));
          true
        | Blit_string (f, o, s) ->
          Hw.Phys.blit_from_string t ~frame:f ~off:o s;
          store f o s;
          true
        | Write_from (f, o, src, pos) ->
          let len = String.length src - 2 in
          Hw.Phys.write_from t ~frame:f ~off:o src ~pos ~len;
          store f o (String.sub src pos len);
          true
        | Blit_bytes (f, s) ->
          Hw.Phys.blit_from_bytes t ~frame:f (Bytes.of_string (s ^ "pad")) ~len:(String.length s);
          store f 0 s;
          true
        | Copy (src, dst) ->
          Hw.Phys.copy_frame t ~src ~dst;
          written.(dst) <- true;
          Bytes.blit prim.(src) 0 prim.(dst) 0 ps;
          Option.iter (fun sh -> Bytes.blit sh.(src) 0 sh.(dst) 0 ps) !shadow;
          true
        | Flip (f, o, b) ->
          Hw.Phys.flip_bit t ~frame:f ~off:o ~bit:b;
          written.(f) <- true;
          Bytes.set prim.(f) o (Char.chr (Char.code (Bytes.get prim.(f) o) lxor (1 lsl b)));
          true
        | Shadow_w8 (f, o, v) ->
          Hw.Phys.ecc_shadow_write8 t ~frame:f ~off:o v;
          Option.iter (fun sh -> Bytes.set sh.(f) o (Char.chr v)) !shadow;
          true
        | R8 (f, o) -> Hw.Phys.read8 t ~frame:f ~off:o = Char.code (read f o 1).[0]
        | R32 (f, o) -> Hw.Phys.read32 t ~frame:f ~off:o = int32_of (read f o 4)
        | R8_at a ->
          let f, o = split a in
          Hw.Phys.read8_at t a = Char.code (read f o 1).[0]
        | R32_at a ->
          let f, o = split a in
          Hw.Phys.read32_at t a = int32_of (read f o 4)
        | Read_into (f, o, len) ->
          let len = min len (ps - o) in
          let dst = Bytes.make (len + 1) '*' in
          Hw.Phys.read_into t ~frame:f ~off:o dst ~pos:1 ~len;
          Bytes.sub_string dst 1 len = read f o len
        | Ecc on ->
          set_ecc on;
          true
      in
      let frames = List.init n Fun.id in
      List.for_all step ops
      && Hw.Phys.ecc_corrections t = !corrections
      && List.for_all
           (fun f ->
             Hw.Phys.to_string t ~frame:f = Bytes.to_string prim.(f)
             && Hw.Phys.is_zero_frame t ~frame:f
                = (Bytes.to_string prim.(f) = String.make ps '\000'))
           frames
      && Hw.Phys.to_string t ~frame:(n - 1) = String.make ps '\000'
      && Hw.Phys.materialized t
         <= List.length (List.filter (fun f -> written.(f)) frames))

(* --- page arithmetic: [Mmu] at every page size ----------------------------- *)

(* The MMU and [Phys] compute page numbers and offsets with shifts and
   masks. A reference with [/] and [mod] must agree at every power-of-two
   page size from 64 B to 64 KiB: the physical address a translation
   yields, the fault register's [addr] and [kind] on a fault, and the
   bytes a 32-bit access reads or writes, including one split at the
   page edge into four byte accesses. Addresses cluster at the last four
   bytes of a page, above 2^31 and below zero (a base register plus a
   negative offset, which [mask32] wraps to the top of the space). The
   walker is a formula of the vpn: every third page absent, every fifth
   read-only. *)
type page_op =
  | Xlate of Hw.Mmu.access * int
  | Rd8 of int
  | Rd32 of int
  | Wr8 of int * int
  | Wr32 of int * int

let page_frames = 4

let gen_page_op shift =
  let open Gen in
  let ps = 1 lsl shift in
  let vpn = oneof [ int_range 0 64; int_range (0x8000_0000 / ps) (0xFFFF_FFFF / ps) ] in
  let addr =
    oneof
      [
        map2 (fun v d -> (v * ps) + ps - 4 + d) vpn (int_range 0 3);
        int_range 0x8000_0000 0xFFFF_FFFF;
        int_range (-2 * ps) (-1);
        int_range 0 (64 * ps);
      ]
  in
  oneof
    [
      map2 (fun acc a -> Xlate (acc, a)) (oneofl Hw.Mmu.[ Fetch; Read; Write ]) addr;
      map (fun a -> Rd8 a) addr;
      map (fun a -> Rd32 a) addr;
      map2 (fun a v -> Wr8 (a, v)) addr (int_range 0 255);
      map2 (fun a v -> Wr32 (a, v)) addr (int_range 0 0xFFFF_FFFF);
    ]

let pp_page_op = function
  | Xlate (acc, a) ->
    let name = match acc with Hw.Mmu.Fetch -> "fetch" | Read -> "read" | Write -> "write" in
    Fmt.str "translate %s %d" name a
  | Rd8 a -> Fmt.str "read8 %d" a
  | Rd32 a -> Fmt.str "read32 %d" a
  | Wr8 (a, v) -> Fmt.str "write8 %d %d" a v
  | Wr32 (a, v) -> Fmt.str "write32 %d %#x" a v

let prop_page_arithmetic =
  Test.make ~name:"mmu: shift-and-mask page arithmetic matches / and mod" ~count:300
    (make
       ~print:Print.(pair int (list pp_page_op))
       Gen.(
         int_range 6 16 >>= fun k -> pair (return k) (list_size (int_range 1 60) (gen_page_op k))))
    (fun (shift, ops) ->
      let ps = 1 lsl shift in
      let absent vpn = vpn mod 3 = 2 and read_only vpn = vpn mod 5 = 4 in
      let phys = Hw.Phys.create ~page_size:ps ~frames:page_frames () in
      let mmu = Hw.Mmu.create ~phys ~cost:(Hw.Cost.create ()) () in
      Hw.Mmu.load_cr3 mmu (fun vpn ->
          if absent vpn then -1
          else
            Hw.Tlb.word ~frame:(vpn mod page_frames) ~writable:(not (read_only vpn)) ~user:true
              ~nx:false);
      let mem = Bytes.make (page_frames * ps) '\000' in
      (* the reference translation: [Ok paddr] or [Error (addr, kind)] *)
      let translate acc vaddr =
        let a = vaddr land 0xFFFF_FFFF in
        let vpn = a / ps in
        if absent vpn then Error (a, Hw.Mmu.Not_present)
        else if acc = Hw.Mmu.Write && read_only vpn then Error (a, Hw.Mmu.Protection)
        else Ok ((vpn mod page_frames * ps) + (a mod ps))
      in
      let fault_is acc (addr, kind) =
        let f = Hw.Mmu.pending_fault mmu in
        f.addr = addr && f.kind = kind && f.access = acc
      in
      let byte pa = Char.code (Bytes.get mem pa) in
      let in_page vaddr = vaddr land 0xFFFF_FFFF mod ps <= ps - 4 in
      let bytes_of vaddr = List.init 4 (fun i -> translate Hw.Mmu.Read (vaddr + i)) in
      let faults = List.filter_map (function Error e -> Some e | Ok _ -> None) in
      let raises f = match f () with _ -> false | exception Hw.Mmu.Pending_fault -> true in
      let step = function
        | Xlate (acc, a) -> (
          let r = Hw.Mmu.translate_result mmu ~from_user:true acc a in
          match translate acc a with Ok pa -> r = pa | Error e -> r < 0 && fault_is acc e)
        | Rd8 a -> (
          match translate Hw.Mmu.Read a with
          | Ok pa -> Hw.Mmu.Fast.read8 mmu ~from_user:true a = byte pa
          | Error e ->
            raises (fun () -> Hw.Mmu.Fast.read8 mmu ~from_user:true a) && fault_is Read e)
        | Rd32 a -> (
          let expected =
            if in_page a then
              Result.map (fun pa -> List.init 4 (fun i -> byte (pa + i))) (translate Hw.Mmu.Read a)
              |> Result.map_error (fun e -> [ e ])
            else
              match faults (bytes_of a) with
              | [] -> Ok (List.map (function Ok pa -> byte pa | Error _ -> 0) (bytes_of a))
              | es -> Error es
          in
          match expected with
          | Ok bs ->
            Hw.Mmu.Fast.read32 mmu ~from_user:true a
            = List.fold_right (fun b acc -> (acc lsl 8) lor b) bs 0
          | Error es ->
            (* a split read faults at one of its faulting bytes *)
            raises (fun () -> Hw.Mmu.Fast.read32 mmu ~from_user:true a)
            && List.exists (fault_is Read) es)
        | Wr8 (a, v) -> (
          match translate Hw.Mmu.Write a with
          | Ok pa ->
            Hw.Mmu.Fast.write8 mmu ~from_user:true a v;
            Bytes.set mem pa (Char.chr v);
            true
          | Error e ->
            raises (fun () -> Hw.Mmu.Fast.write8 mmu ~from_user:true a v) && fault_is Write e)
        | Wr32 (a, v) ->
          let raised = raises (fun () -> Hw.Mmu.Fast.write32 mmu ~from_user:true a v) in
          let byte_at i = Char.chr ((v lsr (8 * i)) land 0xFF) in
          if in_page a then (
            match translate Hw.Mmu.Write a with
            | Ok pa ->
              for i = 0 to 3 do
                Bytes.set mem (pa + i) (byte_at i)
              done;
              not raised
            | Error e -> raised && fault_is Write e)
          else
            (* a split write stores its bytes in order up to the first
               faulting one *)
            let rec go i =
              if i = 4 then not raised
              else
                match translate Hw.Mmu.Write (a + i) with
                | Ok pa ->
                  Bytes.set mem pa (byte_at i);
                  go (i + 1)
                | Error e -> raised && fault_is Write e
            in
            go 0
      in
      List.for_all step ops
      && List.for_all
           (fun f -> Hw.Phys.to_string phys ~frame:f = Bytes.sub_string mem (f * ps) ps)
           (List.init page_frames Fun.id))

(* --- block chaining: [Bbcache.follow] is [lookup] ----------------------- *)

type bb_op =
  | Look of int * int  (* frame, offset *)
  | Poke of int * int * int  (* frame, offset, byte: a store the watch sees *)
  | Clear

let bb_ps = 64
let bb_frames = 4

let gen_bb_op =
  let open Gen in
  frequency
    [
      (24, map2 (fun f o -> Look (f, o)) (int_range 0 1) (int_range 0 1));
      (6, map2 (fun f o -> Look (f, o)) (int_range 0 (bb_frames - 1)) (int_range 0 7));
      (2, map3 (fun f o v -> Poke (f, o, v)) (int_range 0 (bb_frames - 1)) (int_range 0 31) (int_range 0 255));
      (1, return Clear);
    ]

let pp_bb_op = function
  | Look (f, o) -> Fmt.str "lookup %d+%d" f o
  | Poke (f, o, v) -> Fmt.str "write8 %d+%d %d" f o v
  | Clear -> "clear"

(* Twin caches over twin memories: one answers every lookup with
   [lookup], the other with [follow] from the block it returned last.
   Blocks and statistics must agree after every step, across stores into
   watched frames (generation bumps), [clear] and the wholesale reset of
   an 8-block table (both new epochs). Most lookups go to four hot
   addresses, so successors repeat and some 15% of [follow]s take a
   link. *)
let prop_bbcache_follow =
  Test.make ~name:"bbcache: follow returns and counts what lookup does" ~count:300
    (make
       ~print:Print.(pair (list (fun i -> Isa.Insn.to_string i)) (list pp_bb_op))
       Gen.(pair (list_size (int_range 1 24) gen_instr) (list_size (int_range 1 120) gen_bb_op)))
    (fun (code, ops) ->
      let code = String.concat "" (List.map Isa.Encode.to_string code) in
      let code = String.sub code 0 (min bb_ps (String.length code)) in
      let twin () =
        let phys = Hw.Phys.create ~page_size:bb_ps ~frames:bb_frames () in
        for frame = 0 to bb_frames - 1 do
          Hw.Phys.blit_from_string phys ~frame ~off:0 code
        done;
        (phys, Hw.Bbcache.create ~max_blocks:8 ~phys ())
      in
      let pa, a = twin () and pb, b = twin () in
      let last = ref Hw.Bbcache.none in
      let view (x : Hw.Bbcache.block) = (x.b_pa0, x.b_gen, x.n) in
      List.for_all
        (fun op ->
          let same_block =
            match op with
            | Look (f, o) ->
              let pa0 = (f * bb_ps) + o in
              let x = Hw.Bbcache.lookup a pa0 and y = Hw.Bbcache.follow b !last pa0 in
              last := y;
              view x = view y
            | Poke (frame, off, v) ->
              Hw.Phys.write8 pa ~frame ~off v;
              Hw.Phys.write8 pb ~frame ~off v;
              true
            | Clear ->
              Hw.Bbcache.clear a;
              Hw.Bbcache.clear b;
              true
          in
          same_block && Hw.Bbcache.stats a = Hw.Bbcache.stats b)
        ops)

(* The TLB as it was before the slot arrays: an entry table, a raw queue
   of vpns and an occurrence count per queued vpn, with stale-skip
   eviction and LRU compaction at 8x capacity. Kept here as the
   reference the flat TLB must match step for step. *)
module Queue_tlb = struct
  type t = {
    capacity : int;
    lru : bool;
    table : (int, int) Hashtbl.t;  (* vpn -> PTE word *)
    fifo : int Queue.t;
    occ : (int, int) Hashtbl.t;
    stats : Hw.Tlb.stats;
  }

  let create ~lru ~capacity =
    {
      capacity;
      lru;
      table = Hashtbl.create capacity;
      fifo = Queue.create ();
      occ = Hashtbl.create capacity;
      stats = { hits = 0; misses = 0; flushes = 0; invalidations = 0; evictions = 0 };
    }

  let push t vpn =
    Queue.add vpn t.fifo;
    Hashtbl.replace t.occ vpn (1 + Option.value ~default:0 (Hashtbl.find_opt t.occ vpn))

  let compact t =
    let raw = Array.of_seq (Queue.to_seq t.fifo) in
    Queue.clear t.fifo;
    Hashtbl.reset t.occ;
    let kept = ref [] and seen = Hashtbl.create t.capacity in
    for i = Array.length raw - 1 downto 0 do
      let vpn = raw.(i) in
      if Hashtbl.mem t.table vpn && not (Hashtbl.mem seen vpn) then begin
        Hashtbl.add seen vpn ();
        kept := vpn :: !kept
      end
    done;
    List.iter (push t) !kept

  let touch t vpn =
    push t vpn;
    if Queue.length t.fifo > 8 * t.capacity then compact t

  let peek t vpn = Option.value (Hashtbl.find_opt t.table vpn) ~default:(-1)

  let find t vpn =
    let w = peek t vpn in
    if w >= 0 then begin
      t.stats.hits <- t.stats.hits + 1;
      if t.lru then touch t vpn
    end
    else t.stats.misses <- t.stats.misses + 1;
    w

  let note_hits t vpn n =
    if n > 0 then begin
      t.stats.hits <- t.stats.hits + n;
      if t.lru then
        for _ = 1 to n do
          touch t vpn
        done
    end

  let rec evict_one t =
    match Queue.take_opt t.fifo with
    | None -> ()
    | Some victim ->
      let remaining = Option.value ~default:0 (Hashtbl.find_opt t.occ victim) - 1 in
      if remaining <= 0 then Hashtbl.remove t.occ victim
      else Hashtbl.replace t.occ victim remaining;
      if remaining > 0 then evict_one t
      else if Hashtbl.mem t.table victim then begin
        Hashtbl.remove t.table victim;
        t.stats.evictions <- t.stats.evictions + 1
      end
      else evict_one t

  let fill t vpn w =
    let fresh = not (Hashtbl.mem t.table vpn) in
    if fresh && Hashtbl.length t.table >= t.capacity then evict_one t;
    Hashtbl.replace t.table vpn w;
    if fresh then push t vpn

  let entries t = List.sort compare (List.of_seq (Hashtbl.to_seq t.table))

  let tamper t vpn f =
    match Hashtbl.find_opt t.table vpn with
    | None -> ()
    | Some w -> Hashtbl.replace t.table vpn (f w)

  let invalidate t vpn =
    if Hashtbl.mem t.table vpn then begin
      Hashtbl.remove t.table vpn;
      t.stats.invalidations <- t.stats.invalidations + 1
    end

  let flush t =
    Hashtbl.reset t.table;
    Queue.clear t.fifo;
    Hashtbl.reset t.occ;
    t.stats.flushes <- t.stats.flushes + 1

  (* the queue reduced to each resident vpn's last occurrence: its
     replacement order *)
  let order t =
    List.fold_right
      (fun vpn kept ->
        if Hashtbl.mem t.table vpn && not (List.mem vpn kept) then vpn :: kept else kept)
      (List.of_seq (Queue.to_seq t.fifo))
      []

  let export t : Hw.Tlb.state =
    {
      s_entries = List.map (fun vpn -> (vpn, Hashtbl.find t.table vpn)) (order t);
      s_hits = t.stats.hits;
      s_misses = t.stats.misses;
      s_flushes = t.stats.flushes;
      s_invalidations = t.stats.invalidations;
      s_evictions = t.stats.evictions;
    }
end

type tlb_twin_op =
  | T_find of int
  | T_peek of int
  | T_fill of int * int
  | T_invalidate of int
  | T_flush
  | T_note_hits of int * int
  | T_tamper of int
  | T_restore

let gen_tlb_twin_op =
  let open Gen in
  let vpn = int_range 0 11 in
  frequency
    [
      (6, map (fun v -> T_find v) vpn);
      (2, map (fun v -> T_peek v) vpn);
      (8, map2 (fun v f -> T_fill (v, f)) vpn (int_range 0 99));
      (2, map (fun v -> T_invalidate v) vpn);
      (1, return T_flush);
      (4, map2 (fun v n -> T_note_hits (v, n)) vpn (int_range 1 40));
      (1, map (fun v -> T_tamper v) vpn);
      (1, return T_restore);
    ]

let pp_tlb_twin_op = function
  | T_find v -> Fmt.str "find %d" v
  | T_peek v -> Fmt.str "peek %d" v
  | T_fill (v, f) -> Fmt.str "fill %d->%d" v f
  | T_invalidate v -> Fmt.str "invalidate %d" v
  | T_flush -> "flush"
  | T_note_hits (v, n) -> Fmt.str "note_hits %d %d" v n
  | T_tamper v -> Fmt.str "tamper %d" v
  | T_restore -> "restore from the reference's export"

(* Twin TLBs, the flat one and the queue reference, through one random
   sequence: entries, statistics, every eviction victim and the
   replacement order must agree after every step. [restore] replaces the
   flat TLB with a fresh one imported from the reference's export (its
   queue reduced to the replacement order), so the victims after it check
   that [import] keeps each entry's age. *)
let prop_tlb_twin =
  Test.make ~name:"tlb: flat slots evict as the queue reference does" ~count:500
    (make
       ~print:Print.(triple int bool (list pp_tlb_twin_op))
       Gen.(triple (int_range 1 8) bool (list_size (int_range 1 150) gen_tlb_twin_op)))
    (fun (capacity, lru, ops) ->
      let policy = if lru then Hw.Tlb.Lru else Hw.Tlb.Fifo in
      let fresh () = Hw.Tlb.create ~policy ~name:"flat" ~capacity () in
      let flat = ref (fresh ()) and rf = Queue_tlb.create ~lru ~capacity in
      let word vpn frame = Hw.Tlb.word ~frame ~writable:true ~user:(vpn land 1 = 0) ~nx:false in
      let flip w = (w lxor Hw.Tlb.pte_nx) + (1000 lsl 12) in
      let vpns l = List.map fst l in
      List.for_all
        (fun op ->
          let t = !flat in
          let before_flat = vpns (Hw.Tlb.entries t) and before_ref = vpns (Queue_tlb.entries rf) in
          let same_answer =
            match op with
            | T_find v -> Hw.Tlb.find t v = Queue_tlb.find rf v
            | T_peek v -> Hw.Tlb.peek t v = Queue_tlb.peek rf v
            | T_fill (v, f) ->
              Hw.Tlb.fill t v (word v f);
              Queue_tlb.fill rf v (word v f);
              true
            | T_invalidate v ->
              Hw.Tlb.invalidate t v;
              Queue_tlb.invalidate rf v;
              true
            | T_flush ->
              Hw.Tlb.flush t;
              Queue_tlb.flush rf;
              true
            | T_note_hits (v, n) ->
              Hw.Tlb.note_hits t v n;
              Queue_tlb.note_hits rf v n;
              true
            | T_tamper v ->
              let found = Hw.Tlb.tamper t v flip in
              Queue_tlb.tamper rf v flip;
              found = Hashtbl.mem rf.table v
            | T_restore ->
              let t' = fresh () in
              Hw.Tlb.import t' (Queue_tlb.export rf);
              flat := t';
              true
          in
          let t = !flat in
          let gone before after = List.filter (fun v -> not (List.mem v after)) before in
          let victims_flat = gone before_flat (vpns (Hw.Tlb.entries t)) in
          let victims_ref = gone before_ref (vpns (Queue_tlb.entries rf)) in
          let s = Hw.Tlb.export t in
          same_answer
          && Hw.Tlb.entries t = Queue_tlb.entries rf
          && Hw.Tlb.stats t = rf.stats
          && victims_flat = victims_ref
          && vpns s.s_entries = Queue_tlb.order rf
          && Hw.Tlb.size t <= capacity)
        ops)

(* Every property starts from one fixed seed, so the suite's cases (and
   its run time) repeat run to run. *)
let to_alcotest t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 7 |]) t

let suite =
  List.map to_alcotest
    [
      prop_encode_decode_roundtrip;
      prop_program_roundtrip;
      prop_sign_mask;
      prop_tlb_capacity;
      prop_signature;
      prop_pipe_fifo;
      prop_split_writes_never_touch_code_copy;
      prop_phys_zero_page;
      prop_page_arithmetic;
      prop_bbcache_follow;
      prop_tlb_twin;
    ]

(* Differential test of CPU semantics: a random straight-line register
   program is executed both by the simulator and by a direct OCaml
   interpretation of the ISA's documented semantics; the full 32-bit
   result must agree. *)

let gen_dest_reg =
  (* never write esp: the result-dump epilogue needs a valid stack *)
  Gen.oneofl (List.filter (fun r -> r <> Isa.Reg.ESP) Isa.Reg.all)

let reg_instr_gen : Isa.Insn.t Gen.t =
  let open Gen in
  let open Isa.Insn in
  oneof
    [
      map2 (fun r i -> Mov_ri (r, i)) gen_dest_reg gen_imm32;
      map2 (fun a b -> Mov_rr (a, b)) gen_dest_reg gen_reg;
      map2 (fun a b -> Add (a, b)) gen_dest_reg gen_reg;
      map2 (fun a b -> Sub (a, b)) gen_dest_reg gen_reg;
      map2 (fun r i -> Add_ri (r, i)) gen_dest_reg gen_disp;
      map2 (fun a b -> And_ (a, b)) gen_dest_reg gen_reg;
      map2 (fun a b -> Or_ (a, b)) gen_dest_reg gen_reg;
      map2 (fun a b -> Xor (a, b)) gen_dest_reg gen_reg;
      map2 (fun a b -> Mul (a, b)) gen_dest_reg gen_reg;
      map2 (fun r i -> Shl (r, i)) gen_dest_reg (Gen.int_range 0 31);
      map2 (fun r i -> Shr (r, i)) gen_dest_reg (Gen.int_range 0 31);
      map3 (fun d b i -> Lea (d, b, i)) gen_dest_reg gen_reg gen_disp;
    ]

let reference_interp instrs =
  let open Isa.Insn in
  let mask = Isa.Encode.mask32 in
  let regs = Array.make 8 0 in
  regs.(Isa.Reg.to_int Isa.Reg.ESP) <- Kernel.Layout.initial_esp;
  let g r = regs.(Isa.Reg.to_int r) in
  let s r v = regs.(Isa.Reg.to_int r) <- mask v in
  List.iter
    (fun insn ->
      match insn with
      | Mov_ri (d, i) -> s d i
      | Mov_rr (d, src) -> s d (g src)
      | Add (d, src) -> s d (g d + g src)
      | Sub (d, src) -> s d (g d - g src)
      | Add_ri (d, i) -> s d (g d + i)
      | And_ (d, src) -> s d (g d land g src)
      | Or_ (d, src) -> s d (g d lor g src)
      | Xor (d, src) -> s d (g d lxor g src)
      | Mul (d, src) -> s d (g d * g src)
      | Shl (d, i) -> s d (g d lsl (i land 31))
      | Shr (d, i) -> s d (g d lsr (i land 31))
      | Lea (d, b, i) -> s d (g b + i)
      | _ -> assert false)
    instrs;
  regs

let prop_cpu_differential =
  Test.make ~name:"cpu agrees with reference semantics" ~count:150
    (make Gen.(list_size (int_range 1 25) reg_instr_gen))
    (fun instrs ->
      (* keep esp valid for the simulator's stack (not used by these ops) *)
      let expected = reference_interp instrs in
      (* the guest writes all 8 registers to a data buffer and prints it *)
      let image =
        Kernel.Image.build ~name:"diff"
          ~data:(fun ~lbl:_ -> Isa.Asm.[ L "out"; Space 32 ])
          ~code:(fun ~lbl ->
            let open Isa.Asm in
            (L "main" :: List.map (fun i -> I i) instrs)
            @ List.concat
                (List.mapi
                   (fun idx r ->
                     if r = Isa.Reg.ESP || r = Isa.Reg.EBP then []
                     else
                       [
                         I (Push EBP);
                         I (Mov_ri (EBP, lbl "out"));
                         I (Store (EBP, idx * 4, r));
                         I (Pop EBP);
                       ])
                   Isa.Reg.all)
            @ Guest.sys_write_imm ~buf:(lbl "out") ~len:32 ()
            @ Guest.sys_exit 0)
          ~entry:"main" ()
      in
      let k = Kernel.Os.create ~protection:(Split_memory.protection ()) () in
      let p = Kernel.Os.spawn k image in
      ignore (Kernel.Os.run k);
      let dump = Kernel.Os.read_stdout k p in
      String.length dump = 32
      && List.for_all
           (fun r ->
             r = Isa.Reg.ESP || r = Isa.Reg.EBP
             ||
             let idx = Isa.Reg.to_int r in
             let b i = Char.code dump.[(idx * 4) + i] in
             let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
             v = expected.(idx))
           Isa.Reg.all)

let suite = suite @ [ to_alcotest prop_cpu_differential ]

(* The decoder is total: any byte string either decodes or reports a
   structured error — it never raises. *)
let prop_decoder_total =
  Test.make ~name:"decoder never raises on junk" ~count:500
    (make Gen.(string_size (int_range 1 16)))
    (fun junk ->
      match Isa.Decode.of_string junk 0 with Ok _ | Error _ -> true)

(* The whole simulator is deterministic: running the same workload twice
   yields identical cycle counts and event logs. *)
let prop_determinism =
  Test.make ~name:"simulation is deterministic" ~count:10
    (make Gen.(int_range 3 20))
    (fun iters ->
      let run () =
        let k = Kernel.Os.create ~protection:(Split_memory.protection ()) () in
        let ping = Kernel.Os.spawn k (Workload.Guests.ctxsw_ping ~iters ()) in
        let pong = Kernel.Os.spawn k (Workload.Guests.ctxsw_pong ()) in
        Kernel.Os.connect k ping pong;
        ignore (Kernel.Os.run k);
        ((Kernel.Os.cost k).cycles, List.length (Kernel.Event_log.to_list (Kernel.Os.log k)))
      in
      run () = run ())

let suite =
  suite
  @ List.map to_alcotest [ prop_decoder_total; prop_determinism ]
