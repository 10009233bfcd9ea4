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
            Hw.Tlb.insert tlb { vpn = v; frame = f; user = true; writable = true; nx = false };
            Hashtbl.replace model v f
          | Invalidate v ->
            Hw.Tlb.invalidate tlb v;
            Hashtbl.remove model v
          | Flush ->
            Hw.Tlb.flush tlb;
            Hashtbl.reset model
          | Lookup v -> ignore (Hw.Tlb.lookup tlb v));
          Hw.Tlb.size tlb <= 8
          &&
          (* anything cached must agree with the model (eviction may drop
             entries, but never corrupt them) *)
          Hashtbl.fold
            (fun v f ok ->
              ok
              &&
              match Hw.Tlb.peek tlb v with
              | Some e -> e.frame = f
              | None -> true)
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
