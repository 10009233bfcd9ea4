(* The code-reuse subsystem: gadget scanner, chain builder, the defense x
   attack matrix boundary, and the Encode -> Decode -> Disasm round-trip
   property over random well-formed instruction streams. The full matrix
   is pinned by test/golden/reproduction.golden, whose run exits 1 if a
   cell deviates from the threat model. *)

open Reuse

let victim = Campaign.scan ()
let image = Victim.image ()

let defense name =
  match List.assoc_opt name Campaign.defenses with
  | Some d -> d
  | None -> Alcotest.failf "unknown defense %s" name

(* ------------------------------------------------------------------ *)
(* Gadget scanner                                                      *)
(* ------------------------------------------------------------------ *)

(* The pop/ret gadgets are unintended: they live at +2 inside the Mov_ri
   immediates of the checksum constants, not on any instruction boundary
   the assembler emitted. *)
let test_unintended_gadgets () =
  let pop_ebx =
    match Gadget.pop_ret victim Isa.Reg.EBX with
    | Some g -> g
    | None -> Alcotest.fail "no pop ebx; ret gadget in victim image"
  in
  let pop_eax =
    match Gadget.pop_ret victim Isa.Reg.EAX with
    | Some g -> g
    | None -> Alcotest.fail "no pop eax; ret gadget in victim image"
  in
  Alcotest.(check int) "pop ebx hides at ck1+2" (Kernel.Image.label image "ck1" + 2)
    pop_ebx.Gadget.addr;
  Alcotest.(check int) "pop eax hides at ck2+2" (Kernel.Image.label image "ck2" + 2)
    pop_eax.Gadget.addr;
  Alcotest.(check int) "pop;ret is 3 bytes" 3 (Gadget.size pop_ebx);
  (match pop_ebx.Gadget.insns with
  | [ Isa.Insn.Pop Isa.Reg.EBX; Isa.Insn.Ret ] -> ()
  | _ -> Alcotest.fail "pop ebx gadget decodes to something else");
  match Gadget.syscall_ret victim with
  | Some g -> (
    match g.Gadget.insns with
    | [ Isa.Insn.Int 0x80; Isa.Insn.Ret ] -> ()
    | _ -> Alcotest.fail "syscall gadget decodes to something else")
  | None -> Alcotest.fail "no int 0x80; ret gadget in victim image"

(* Every gadget the scanner indexes must re-decode at its own address: the
   index is a promise about what the CPU will execute. *)
let test_scan_self_consistent () =
  let code =
    match Kernel.Image.find_segment image Kernel.Image.Code with
    | Some s -> s
    | None -> Alcotest.fail "victim image has no code segment"
  in
  Alcotest.(check bool) "scanner found a non-trivial index" true
    (List.length victim > 10);
  List.iter
    (fun (g : Gadget.t) ->
      let pos = g.addr - code.Kernel.Image.base in
      match Isa.Decode.of_string code.Kernel.Image.bytes pos with
      | Ok i -> Alcotest.(check bool) "first insn re-decodes" true (i = List.hd g.insns)
      | Error _ -> Alcotest.failf "gadget at 0x%08x does not re-decode" g.addr)
    victim

(* The scanner is total at segment boundaries: a truncated tail yields no
   gadget, never an exception or a phantom decode. *)
let test_scan_total_at_boundary () =
  (* 0x01 = Mov_ri opcode: 6-byte instruction cut to 3 bytes *)
  let truncated = "\x01\x00\x32" in
  Alcotest.(check bool) "truncated Mov_ri yields no gadget" true
    (Gadget.at ~base:0 truncated 0 = None);
  Alcotest.(check bool) "decode reports Truncated" true
    (Isa.Decode.of_string truncated 0 = Error Isa.Decode.Truncated);
  Alcotest.(check bool) "empty string is Truncated" true
    (Isa.Decode.of_string "" 0 = Error Isa.Decode.Truncated);
  (* a bare ret as the last byte is still a gadget *)
  match Gadget.at ~base:0x1000 "\x90\x32" 1 with
  | Some g -> Alcotest.(check int) "ret-at-end gadget addr" 0x1001 g.Gadget.addr
  | None -> Alcotest.fail "final-byte ret not indexed"

(* ------------------------------------------------------------------ *)
(* Chain builder                                                       *)
(* ------------------------------------------------------------------ *)

let test_chain_shape () =
  let chain = Campaign.chain_for image in
  Alcotest.(check int) "execve+exit chain is 10 words" 10
    (List.length (Chain.words chain));
  Alcotest.(check int) "serialized chain is 40 bytes" 40
    (String.length (Chain.to_bytes chain));
  Alcotest.(check bool) "chain survives copy_until_newline" false
    (Chain.contains_newline chain);
  (* the execve syscall number and the "/bin/sh" address ride the chain *)
  let words = Chain.words chain in
  Alcotest.(check bool) "execve number in chain" true (List.mem 11 words);
  Alcotest.(check bool) "sh address in chain" true
    (List.mem (Kernel.Image.label image "sh") words)

let test_chain_no_gadget () =
  Alcotest.check_raises "empty index raises No_gadget"
    (Chain.No_gadget "pop ebx; ret") (fun () ->
      ignore (Chain.execve_exit ~gadgets:[] ~sh_addr:0x08060000))

let test_ret_into () =
  let c = Chain.ret_into ~target:0x08048140 in
  Alcotest.(check (list int)) "ret_into is one word" [ 0x08048140 ] (Chain.words c)

(* ------------------------------------------------------------------ *)
(* The matrix boundary                                                 *)
(* ------------------------------------------------------------------ *)

let check_outcome name expected actual =
  Alcotest.(check string) name expected (Attack.Runner.outcome_name actual)

(* Paper section 7: no reuse attack writes a byte that is later fetched, so
   split memory alone must let all three through. *)
let test_reuse_escapes_split () =
  List.iter
    (fun a ->
      let outcome = Campaign.run ~defense:(defense "split") a in
      Alcotest.(check bool)
        (Campaign.attack_name a ^ " escapes split memory")
        true
        (Attack.Runner.is_attack_success outcome))
    Campaign.attacks

(* CFI closes the boundary: returns to gadget addresses violate the shadow
   stack, the clobbered function pointer violates the coarse call policy. *)
let test_cfi_detects_reuse () =
  List.iter
    (fun dname ->
      (match Campaign.run ~defense:(defense dname) Campaign.Rop_chain with
      | Attack.Runner.Foiled { mode } ->
        Alcotest.(check string) ("rop under " ^ dname) "cfi-ret" mode
      | o -> check_outcome ("rop under " ^ dname) "foiled" o);
      (match Campaign.run ~defense:(defense dname) Campaign.Ret2libtext with
      | Attack.Runner.Foiled { mode } ->
        Alcotest.(check string) ("ret2libtext under " ^ dname) "cfi-ret" mode
      | o -> check_outcome ("ret2libtext under " ^ dname) "foiled" o);
      match Campaign.run ~defense:(defense dname) Campaign.Fptr_clobber with
      | Attack.Runner.Foiled { mode } ->
        Alcotest.(check string) ("fptr-clobber under " ^ dname) "cfi-call" mode
      | o -> check_outcome ("fptr-clobber under " ^ dname) "foiled" o)
    [ "cfi"; "split+cfi" ]

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* No false positives: both victim paths run to completion under every
   defense, including the data-held function pointer dispatch under CFI. *)
let test_benign_clean () =
  List.iter
    (fun (dname, d) ->
      List.iter
        (fun sel ->
          let outcome, out = Campaign.benign ~defense:d sel in
          check_outcome
            (Fmt.str "benign sel=%d under %s" (Char.code sel.[0]) dname)
            "exit 0" outcome;
          Alcotest.(check bool) "benign prints DONE" true (contains out "DONE"))
        [ Victim.sel_stack; Victim.sel_fptr ])
    Campaign.defenses

(* ------------------------------------------------------------------ *)
(* Encode -> Decode -> Disasm round trip                               *)
(* ------------------------------------------------------------------ *)

(* A generator of well-formed instructions: operand ranges chosen so the
   encoding is lossless (u32 immediates unsigned, displacements and
   relative targets in signed-32 range, shift counts and vectors in u8). *)
let gen_insn : Isa.Insn.t QCheck.Gen.t =
  let open QCheck.Gen in
  let open Isa in
  let reg = map (fun i -> List.nth Reg.all i) (int_range 0 7) in
  let u32 = map (fun i -> i land 0xFFFFFFFF) (int_range 0 max_int) in
  let s32 = int_range (-0x80000000) 0x7FFFFFFF in
  let u8 = int_range 0 255 in
  let rel = map (fun d -> Insn.Rel d) s32 in
  oneof
    [
      return Insn.Nop;
      return Insn.Hlt;
      return Insn.Ret;
      map2 (fun d i -> Insn.Mov_ri (d, i)) reg u32;
      map2 (fun d s -> Insn.Mov_rr (d, s)) reg reg;
      map3 (fun d b o -> Insn.Load (d, b, o)) reg reg s32;
      map3 (fun b o s -> Insn.Store (b, o, s)) reg s32 reg;
      map3 (fun d b o -> Insn.Loadb (d, b, o)) reg reg s32;
      map3 (fun b o s -> Insn.Storeb (b, o, s)) reg s32 reg;
      map (fun r -> Insn.Push r) reg;
      map (fun r -> Insn.Pop r) reg;
      map3 (fun d b o -> Insn.Lea (d, b, o)) reg reg s32;
      map2 (fun d s -> Insn.Add (d, s)) reg reg;
      map2 (fun d s -> Insn.Sub (d, s)) reg reg;
      map2 (fun d i -> Insn.Add_ri (d, i)) reg s32;
      map2 (fun a b -> Insn.Cmp (a, b)) reg reg;
      map2 (fun a i -> Insn.Cmp_ri (a, i)) reg s32;
      map2 (fun d s -> Insn.And_ (d, s)) reg reg;
      map2 (fun d s -> Insn.Or_ (d, s)) reg reg;
      map2 (fun d s -> Insn.Xor (d, s)) reg reg;
      map2 (fun d s -> Insn.Mul (d, s)) reg reg;
      map2 (fun d n -> Insn.Shl (d, n)) reg u8;
      map2 (fun d n -> Insn.Shr (d, n)) reg u8;
      map (fun t -> Insn.Jmp t) rel;
      map (fun t -> Insn.Jz t) rel;
      map (fun t -> Insn.Jnz t) rel;
      map (fun t -> Insn.Jl t) rel;
      map (fun t -> Insn.Jge t) rel;
      map (fun r -> Insn.Jmp_r r) reg;
      map (fun t -> Insn.Call t) rel;
      map (fun r -> Insn.Call_r r) reg;
      map (fun n -> Insn.Int n) u8;
    ]

let gen_stream = QCheck.Gen.(list_size (int_range 1 24) gen_insn)

let encode_stream insns =
  let buf = Buffer.create 64 in
  List.iter (Isa.Encode.add buf) insns;
  Buffer.contents buf

let decode_stream bytes =
  let rec go pos acc =
    if pos >= String.length bytes then Some (List.rev acc)
    else
      match Isa.Decode.of_string bytes pos with
      | Ok i -> go (pos + Isa.Insn.size i) (i :: acc)
      | Error _ -> None
  in
  go 0 []

let prop_roundtrip =
  QCheck.Test.make ~name:"Encode -> Decode round-trips any well-formed stream"
    ~count:500 (QCheck.make gen_stream) (fun insns ->
      decode_stream (encode_stream insns) = Some insns)

let prop_size_agrees =
  QCheck.Test.make ~name:"Insn.size equals encoded length" ~count:500
    (QCheck.make gen_insn) (fun i ->
      String.length (Isa.Encode.to_string i) = Isa.Insn.size i)

let prop_disasm_total =
  QCheck.Test.make ~name:"Disasm renders every well-formed stream" ~count:200
    (QCheck.make gen_stream) (fun insns ->
      let bytes = encode_stream insns in
      let s = Isa.Disasm.to_string bytes ~pos:0 ~len:(String.length bytes) in
      (* one rendered line per instruction, and no decode-error marker *)
      let lines = String.split_on_char '\n' (String.trim s) in
      List.length lines = List.length insns)

let suite =
  [
    Alcotest.test_case "unintended gadgets found" `Quick test_unintended_gadgets;
    Alcotest.test_case "gadget index self-consistent" `Quick test_scan_self_consistent;
    Alcotest.test_case "scanner total at boundaries" `Quick test_scan_total_at_boundary;
    Alcotest.test_case "execve chain shape" `Quick test_chain_shape;
    Alcotest.test_case "No_gadget on empty index" `Quick test_chain_no_gadget;
    Alcotest.test_case "ret-into chain" `Quick test_ret_into;
    Alcotest.test_case "reuse escapes split memory" `Quick test_reuse_escapes_split;
    Alcotest.test_case "CFI detects reuse" `Quick test_cfi_detects_reuse;
    Alcotest.test_case "benign paths clean" `Quick test_benign_clean;
  ]
  (* a fixed seed per property: the same cases every run *)
  @ List.map
      (fun t -> QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 7 |]) t)
      [ prop_roundtrip; prop_size_agrees; prop_disasm_total ]
