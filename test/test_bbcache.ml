(* The decoded basic-block cache (lib/hw/bbcache) and its dispatch path.

   The differential contract — cached dispatch renders every scenario
   exactly like exact dispatch ([env.cache = None]) — is the exact-dispatch
   axis of the determinism harness (test_equiv.ml), which the first five
   cases run on the generated workloads, golden specs, matrix cells and
   seed-7 plans (and the cache liveness of ctxsw/split's baseline).
   Besides those: page-edge block construction (the once-"unreachable"
   [Truncated] decode arm is now exercised, and the negative-block
   fallback must stay exact on both paths), the trap-flag single-step
   window, generation-based invalidation under self-modifying stores,
   [Tlb.note_hits] parity with individual finds including LRU recency,
   snapshot restore treating the cache as derived state, and the
   translate-once discipline: remaps between calls, stores into a
   same-page successor, and an allocation-free instruction loop. *)

(* --- Page-edge blocks and the negative-block fallback ---------------------- *)

(* A bare machine: 8 frames, 16-entry TLBs and a pagetable the test
   edits in place with [map]. *)
let bare ?tlb_policy () =
  let phys = Hw.Phys.create ~frames:8 () in
  let mmu =
    Hw.Mmu.create ~itlb_capacity:16 ~dtlb_capacity:16 ?tlb_policy ~phys
      ~cost:(Hw.Cost.create ()) ()
  in
  let table = Hashtbl.create 4 in
  Hw.Mmu.load_cr3 mmu (fun vpn -> Option.value (Hashtbl.find_opt table vpn) ~default:(-1));
  let map ~vpn ~frame =
    Hashtbl.replace table vpn (Hw.Tlb.word ~frame ~writable:true ~user:true ~nx:false)
  in
  (phys, mmu, map)

let dispatch_env phys ~cached =
  let env = Hw.Exec_env.create () in
  if cached then env.Hw.Exec_env.cache <- Some (Hw.Bbcache.create ~phys ());
  env

(* One [run_block] call with its counts, as the scheduler reads them. *)
type run = { attempts : int; retired : int; trap : Hw.Cpu.trap }

let run_n ?(tick_limit = max_int) env mmu regs n =
  let trap = Hw.Cpu.run_block env mmu regs ~max_insns:n ~tick_limit in
  { attempts = Hw.Cpu.attempts env; retired = Hw.Cpu.retired env; trap }

(* An instruction whose encoding crosses a code-page boundary: 4093 one-
   byte nops fill page 0 up to offset 4093, then a 6-byte [mov ecx, imm]
   occupies bytes 4093..4098 — three bytes in vpn 0, three in vpn 1. The
   block builder must end the page-0 block before it (the [Truncated]
   decode arm), cache a negative block at its pa0, and dispatch must
   retire it through the exact byte-at-a-time fallback. *)
let straddle_program =
  let open Isa.Asm in
  List.init 4093 (fun _ -> I Isa.Insn.Nop)
  @ [ I (Mov_ri (ECX, 0x11223344)); I (Mov_ri (EDX, 0x55667788)); I Hlt ]

let straddle_fixture () =
  let phys, mmu, map = bare () in
  let a = Isa.Asm.assemble ~origin:0 straddle_program in
  Hw.Phys.blit_from_string phys ~frame:1 ~off:0 (String.sub a.code 0 4096);
  Hw.Phys.blit_from_string phys ~frame:2 ~off:0
    (String.sub a.code 4096 (String.length a.code - 4096));
  map ~vpn:0 ~frame:1;
  map ~vpn:1 ~frame:2;
  (phys, mmu, Hw.Cpu.create_regs (), a)

let test_page_straddle () =
  (* the decoder itself: operands past the page edge are [Truncated] *)
  let _, _, _, a = straddle_fixture () in
  (match Isa.Decode.of_string (String.sub a.code 0 4096) 4093 with
  | Error Isa.Decode.Truncated -> ()
  | _ -> Alcotest.fail "straddling insn must decode as Truncated at the page edge");
  (* reference: one instruction per call on the exact path *)
  let phys_ref, mmu_ref, regs_ref, _ = straddle_fixture () in
  let env_ref = dispatch_env phys_ref ~cached:false in
  let retired_ref = ref 0 in
  let rec step_all () =
    match (run_n env_ref mmu_ref regs_ref 1).trap with
    | Hw.Cpu.No_trap ->
      incr retired_ref;
      step_all ()
    | Hw.Cpu.Gp -> () (* hlt *)
    | _ -> Alcotest.fail "reference run: unexpected trap"
  in
  step_all ();
  Alcotest.(check int) "ecx" 0x11223344 (Hw.Cpu.get regs_ref Isa.Reg.ECX);
  Alcotest.(check int) "edx" 0x55667788 (Hw.Cpu.get regs_ref Isa.Reg.EDX);
  let itlb_ref = Hw.Tlb.stats (Hw.Mmu.itlb mmu_ref) in
  (* run_block over the same image, exact and cached *)
  let dispatch name ~cached =
    let phys, mmu, regs, _ = straddle_fixture () in
    let env = dispatch_env phys ~cached in
    let retired = ref 0 in
    let rec drive () =
      let br = run_n env mmu regs 10_000 in
      retired := !retired + br.retired;
      match br.trap with
      | Hw.Cpu.No_trap -> drive ()
      | Hw.Cpu.Gp -> () (* hlt *)
      | _ -> Alcotest.fail (name ^ " run: unexpected trap")
    in
    drive ();
    Alcotest.(check int) (name ^ ": same retire count") !retired_ref !retired;
    Alcotest.(check bool) (name ^ ": same registers") true (regs = regs_ref);
    Alcotest.(check bool) (name ^ ": same itlb stats") true
      (Hw.Tlb.stats (Hw.Mmu.itlb mmu) = itlb_ref);
    (* the straddler's pa0 is cached as a negative block *)
    Option.iter
      (fun cache ->
        let b = Hw.Bbcache.lookup cache ((1 * 4096) + 4093) in
        Alcotest.(check int) "negative block at the straddle pc" 0 b.Hw.Bbcache.n)
      env.cache
  in
  dispatch "exact" ~cached:false;
  dispatch "cached" ~cached:true

(* --- The trap flag: one instruction, #DB pending --------------------------- *)

(* Algorithm 2's single-step window: with [tf] set, run_block must take
   exactly one attempt — even with a cache installed — and end the call
   as [Db], the retired instruction uncharged, as a one-instruction call
   on the exact path does. *)
let test_trap_flag_single_step () =
  let phys_ref, mmu_ref, regs_ref, _ = straddle_fixture () in
  regs_ref.Hw.Cpu.tf <- true;
  let ref_run = run_n (dispatch_env phys_ref ~cached:false) mmu_ref regs_ref 1 in
  if ref_run.trap <> Hw.Cpu.Db then Alcotest.fail "reference: expected #DB pending";
  let phys, mmu, regs, _ = straddle_fixture () in
  let env = dispatch_env phys ~cached:true in
  regs.Hw.Cpu.tf <- true;
  let br = run_n env mmu regs 100 in
  Alcotest.(check int) "one attempt" 1 br.attempts;
  Alcotest.(check int) "nothing retired in-loop" 0 br.retired;
  Alcotest.(check bool) "same registers as the exact path" true (regs = regs_ref);
  (* the fetch's walk is charged; the instruction itself is left to the
     kernel, exactly as on the exact path *)
  Alcotest.(check int) "same cycles as the exact path" (Hw.Mmu.cost mmu_ref).Hw.Cost.cycles
    (Hw.Mmu.cost mmu).cycles;
  if br.trap <> Hw.Cpu.Db then Alcotest.fail "expected a retired step with #DB pending"

(* --- Self-modifying code: generation-based invalidation -------------------- *)

let test_smc_invalidation () =
  let phys = Hw.Phys.create ~frames:4 () in
  let cache = Hw.Bbcache.create ~phys () in
  let a = Isa.Asm.assemble ~origin:0 Isa.Asm.[ I (Mov_ri (EAX, 1)); I Hlt ] in
  Hw.Phys.blit_from_string phys ~frame:2 ~off:0 a.code;
  let pa0 = 2 * Hw.Phys.page_size phys in
  let b = Hw.Bbcache.lookup cache pa0 in
  Alcotest.(check int) "two insns (hlt ends the block)" 2 b.Hw.Bbcache.n;
  Alcotest.(check bool) "decoded imm" true (b.insns.(0) = Isa.Insn.Mov_ri (Isa.Reg.EAX, 1));
  let s = Hw.Bbcache.stats cache in
  Alcotest.(check int) "cold miss" 1 s.Hw.Bbcache.misses;
  ignore (Hw.Bbcache.lookup cache pa0 : Hw.Bbcache.block);
  Alcotest.(check int) "warm hit" 1 s.hits;
  (* a store into the watched frame bumps the generation... *)
  Hw.Phys.write8 phys ~frame:2 ~off:2 0x2A;
  Alcotest.(check int) "invalidation fired" 1 s.invalidations;
  Alcotest.(check bool) "block is stale" true (Hw.Bbcache.stale cache b);
  (* ...and the rebuilt block decodes the patched bytes *)
  let b' = Hw.Bbcache.lookup cache pa0 in
  Alcotest.(check int) "stale miss" 2 s.misses;
  Alcotest.(check bool) "patched imm visible" true
    (b'.insns.(0) = Isa.Insn.Mov_ri (Isa.Reg.EAX, 0x2A));
  Alcotest.(check bool) "rebuilt block is fresh" false (Hw.Bbcache.stale cache b');
  (* writes to frames backing no block stay invisible to the watch *)
  Hw.Phys.write8 phys ~frame:0 ~off:0 7;
  Alcotest.(check int) "unwatched frame: no invalidation" 1 s.invalidations;
  (* clear drops blocks but keeps generations monotonic *)
  Hw.Bbcache.clear cache;
  ignore (Hw.Bbcache.lookup cache pa0 : Hw.Bbcache.block);
  Alcotest.(check int) "clear forces rebuild" 3 s.misses

(* --- Tlb.note_hits parity -------------------------------------------------- *)

(* [note_hits t vpn n] must equal n consecutive [find]s: same hit
   statistics and, under LRU, the same recency order (so the same
   survivors after evicting inserts). *)
let test_note_hits_parity () =
  let mk () = Hw.Tlb.create ~policy:Hw.Tlb.Lru ~name:"t" ~capacity:4 () in
  let a = mk () and b = mk () in
  let fill v =
    let w = Hw.Tlb.word ~frame:(v + 10) ~writable:true ~user:true ~nx:false in
    Hw.Tlb.fill a v w;
    Hw.Tlb.fill b v w
  in
  List.iter fill [ 1; 2; 3; 4 ];
  for _ = 1 to 5 do
    ignore (Hw.Tlb.find a 2 : int)
  done;
  Hw.Tlb.note_hits b 2 5;
  let sa = Hw.Tlb.stats a and sb = Hw.Tlb.stats b in
  Alcotest.(check int) "same hits" sa.Hw.Tlb.hits sb.Hw.Tlb.hits;
  Alcotest.(check int) "same misses" sa.misses sb.misses;
  (* vpn 2 is now the hottest entry in both; evicting inserts must pick
     the same victims *)
  List.iter fill [ 5; 6; 7 ];
  List.iter
    (fun v ->
      Alcotest.(check int) (Fmt.str "vpn %d residency matches" v) (Hw.Tlb.peek a v)
        (Hw.Tlb.peek b v))
    [ 1; 2; 3; 4; 5; 6; 7 ];
  Alcotest.(check bool) "hot vpn survives in both" true (Hw.Tlb.peek b 2 >= 0)

(* --- Translate-once dispatch ------------------------------------------------ *)

(* What both dispatch paths must agree on after a run. *)
let machine_state mmu (regs : Hw.Cpu.regs) =
  ( regs,
    (Hw.Mmu.cost mmu).Hw.Cost.cycles,
    Hw.Tlb.export (Hw.Mmu.itlb mmu),
    Hw.Tlb.export (Hw.Mmu.dtlb mmu) )

let counting reg =
  (Isa.Asm.assemble Isa.Asm.[ L "top"; I (Add_ri (reg, 1)); I (Jmp (Lbl "top")) ]).code

(* Cached dispatch translates only a call's first fetch and cross-page
   transfers, folding the rest into ITLB hits. A remap done between two
   calls must still take effect exactly when the exact loop sees it: not
   while the ITLB holds the old entry, and at the next call after the
   [invlpg]. *)
let test_remap_between_calls () =
  let final ~cached =
    let phys, mmu, map = bare () in
    Hw.Phys.blit_from_string phys ~frame:1 ~off:0 (counting Isa.Reg.EAX);
    Hw.Phys.blit_from_string phys ~frame:2 ~off:0 (counting Isa.Reg.EBX);
    map ~vpn:0 ~frame:1;
    let env = dispatch_env phys ~cached and regs = Hw.Cpu.create_regs () in
    let go () = ignore (run_n env mmu regs 10 : run) in
    go ();
    map ~vpn:0 ~frame:2;
    go ();
    Hw.Mmu.invlpg mmu 0;
    go ();
    machine_state mmu regs
  in
  let ((regs, _, _, _) as cached) = final ~cached:true in
  Alcotest.(check int) "old frame runs until the invlpg" 10 (Hw.Cpu.get regs Isa.Reg.EAX);
  Alcotest.(check int) "new frame runs from the next call" 5 (Hw.Cpu.get regs Isa.Reg.EBX);
  Alcotest.(check bool) "cached = exact (regs, cycles, TLBs)" true (cached = final ~cached:false)

(* Block [a] stores into the immediate of block [b] on the same page and
   jumps there: dispatch reaches [b] as a same-page successor (no
   translation) and must still see the patched bytes. *)
let test_smc_same_page_successor () =
  let program ~target =
    Isa.Asm.
      [
        I (Mov_ri (ECX, 0x2A));
        I (Mov_ri (EDI, target));
        I (Storeb (EDI, 0, ECX));
        I (Jmp (Lbl "b"));
        L "b";
        I (Mov_ri (EAX, 1));
        I Hlt;
      ]
  in
  let b = Isa.Asm.label (Isa.Asm.assemble (program ~target:0)) "b" in
  (* [mov eax, imm32] keeps its immediate at byte 2 *)
  let code = (Isa.Asm.assemble (program ~target:(b + 2))).code in
  let final ~cached =
    let phys, mmu, map = bare () in
    Hw.Phys.blit_from_string phys ~frame:1 ~off:0 code;
    map ~vpn:0 ~frame:1;
    let env = dispatch_env phys ~cached and regs = Hw.Cpu.create_regs () in
    (* run [b] once, so its block is cached before it is patched *)
    regs.eip <- b;
    ignore (run_n env mmu regs 10 : run);
    Alcotest.(check int) "unpatched b" 1 (Hw.Cpu.get regs Isa.Reg.EAX);
    regs.eip <- 0;
    let br = run_n env mmu regs 10 in
    Alcotest.(check int) "ran a, then b up to its hlt" 6 br.attempts;
    Option.iter
      (fun c ->
        (* cold b, cold a; the store stales the frame, so a's tail (the
           jmp) and then b are rebuilt *)
        Alcotest.(check int) "rebuilt after the store" 4 (Hw.Bbcache.stats c).misses)
      env.cache;
    machine_state mmu regs
  in
  let ((regs, _, _, _) as cached) = final ~cached:true in
  Alcotest.(check int) "patched b" 0x2A (Hw.Cpu.get regs Isa.Reg.EAX);
  Alcotest.(check bool) "cached = exact (regs, cycles, TLBs)" true (cached = final ~cached:false)

(* Cached dispatch owes the ITLB its folded hits until the next real
   translation or the end of the call, so the ITLB (statistics and
   replacement order) must match exact dispatch after every call,
   whichever way the call ended. The tour: vpn 0 counts, jumps within its page (a
   same-page successor block) and transfers to vpn 1; vpn 1 makes a
   syscall, faults on a load from unmapped vpn 7, and jumps to an
   instruction that straddles its end into vpn 2 (a negative block, run
   by the byte-at-a-time fallback); vpn 2 jumps back to vpn 0. *)
let test_itlb_every_call policy () =
  let page0 =
    Isa.Asm.(
      assemble ~origin:0
        [
          I (Add_ri (EAX, 1));
          I (Jmp (Lbl "mid"));
          L "mid";
          I (Add_ri (EBX, 1));
          I (Add_ri (EAX, 2));
          I (Mov_ri (EDI, 0x1000));
          I (Jmp_r EDI);
        ])
  in
  let page1 =
    Isa.Asm.(
      assemble ~origin:0x1000
        [
          I (Add_ri (ECX, 1));
          I (Int 0x80);
          I (Mov_ri (EDI, 0x7000));
          I (Load (EDX, EDI, 0));
          L "after";
          I (Mov_ri (EDI, 0x1FFD));
          I (Jmp_r EDI);
        ])
  in
  let straddler =
    Isa.Asm.(
      assemble ~origin:0x1FFD [ I (Mov_ri (ESI, 0x11223344)); I (Mov_ri (EDI, 0)); I (Jmp_r EDI) ])
  in
  let after_fault = Isa.Asm.label page1 "after" in
  let twin ~cached =
    let phys, mmu, map = bare ~tlb_policy:policy () in
    let s = straddler.code in
    Hw.Phys.blit_from_string phys ~frame:1 ~off:0 page0.code;
    Hw.Phys.blit_from_string phys ~frame:2 ~off:0 page1.code;
    Hw.Phys.blit_from_string phys ~frame:2 ~off:4093 (String.sub s 0 3);
    Hw.Phys.blit_from_string phys ~frame:3 ~off:0 (String.sub s 3 (String.length s - 3));
    map ~vpn:0 ~frame:1;
    map ~vpn:1 ~frame:2;
    map ~vpn:2 ~frame:3;
    (mmu, dispatch_env phys ~cached, Hw.Cpu.create_regs ())
  in
  let ((mmu_e, _, regs_e) as exact) = twin ~cached:false in
  let ((mmu_c, _, regs_c) as cached) = twin ~cached:true in
  let seen = Hashtbl.create 8 in
  for i = 0 to 299 do
    let max_insns = 1 + (i mod 17) in
    let call (mmu, env, regs) =
      let cost = Hw.Mmu.cost mmu in
      let tick_limit =
        if i mod 4 = 3 then cost.Hw.Cost.cycles + (i mod 5 * cost.params.insn) else max_int
      in
      run_n ~tick_limit env mmu regs max_insns
    in
    let e = call exact and c = call cached in
    let ending =
      match c.trap with
      | Hw.Cpu.Sys -> "syscall"
      | Hw.Cpu.Pf -> "page fault"
      | Hw.Cpu.No_trap when c.attempts < max_insns -> "tick limit"
      | Hw.Cpu.No_trap when regs_c.eip = 0x1000 -> "budget, after a cross-page transfer"
      | Hw.Cpu.No_trap when regs_c.eip = 0x2003 -> "budget, after the fallback"
      | Hw.Cpu.No_trap -> "budget"
      | Hw.Cpu.Ud | Hw.Cpu.Gp | Hw.Cpu.Db -> "unexpected"
    in
    Hashtbl.replace seen ending ();
    let what = Fmt.str "call %d (%s)" i ending in
    Alcotest.(check bool) (what ^ ": same counts and trap") true (e = c);
    Alcotest.(check bool) (what ^ ": same registers") true (regs_e = regs_c);
    Alcotest.(check bool) (what ^ ": same itlb") true
      (Hw.Tlb.export (Hw.Mmu.itlb mmu_e) = Hw.Tlb.export (Hw.Mmu.itlb mmu_c));
    Alcotest.(check int) (what ^ ": same cycles") (Hw.Mmu.cost mmu_e).cycles
      (Hw.Mmu.cost mmu_c).cycles;
    if c.trap = Hw.Cpu.Pf then begin
      regs_e.eip <- after_fault;
      regs_c.eip <- after_fault
    end
  done;
  List.iter
    (fun ending ->
      Alcotest.(check bool) ("some call ended: " ^ ending) true (Hashtbl.mem seen ending))
    [
      "syscall";
      "page fault";
      "tick limit";
      "budget";
      "budget, after a cross-page transfer";
      "budget, after the fallback";
    ];
  Alcotest.(check bool) "no unexpected trap" false (Hashtbl.mem seen "unexpected")

(* The cached loop allocates nothing per instruction: a straight-line
   loop with loads and stores stays under half a minor word per retired
   instruction. The store and the load go to two pages, so under LRU
   every data access moves its DTLB entry to the young end. *)
let test_dispatch_allocation tlb_policy () =
  let code =
    (Isa.Asm.assemble
       Isa.Asm.(
         [ L "top"; I (Mov_ri (EDI, 0x1000)) ]
         @ List.init 8 (fun i -> I (Add_ri (EAX, i)))
         @ [ I (Store (EDI, 0, EAX)); I (Load (EBX, EDI, 0x1004)); I (Jmp (Lbl "top")) ]))
      .code
  in
  let phys, mmu, map = bare ~tlb_policy () in
  Hw.Phys.blit_from_string phys ~frame:1 ~off:0 code;
  map ~vpn:0 ~frame:1;
  map ~vpn:1 ~frame:2;
  map ~vpn:2 ~frame:3;
  let env = dispatch_env phys ~cached:true and regs = Hw.Cpu.create_regs () in
  ignore (run_n env mmu regs 1_000 : run);
  let before = Gc.minor_words () in
  let br = run_n env mmu regs 200_000 in
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "ran the whole budget" 200_000 br.retired;
  let per_insn = words /. float_of_int br.retired in
  if per_insn >= 0.5 then Alcotest.failf "%.3f minor words per instruction (limit 0.5)" per_insn

(* A call that ends in a syscall or a page fault, or on its budget,
   allocates nothing: the trap is a constant constructor and its payload
   stays in registers (EAX, the MMU's fault register) until the kernel
   reads it. *)
let test_trap_exit_allocation () =
  let code =
    (Isa.Asm.assemble
       Isa.Asm.
         [
           L "top";
           I (Mov_ri (EAX, 20));
           I (Int 0x80);
           I (Mov_ri (EDI, 0x7000));
           I (Load (EBX, EDI, 0));
           I (Jmp (Lbl "top"));
         ])
      .code
  in
  let phys, mmu, map = bare () in
  Hw.Phys.blit_from_string phys ~frame:1 ~off:0 code;
  map ~vpn:0 ~frame:1;
  let env = dispatch_env phys ~cached:true and regs = Hw.Cpu.create_regs () in
  let call n = Hw.Cpu.run_block env mmu regs ~max_insns:n ~tick_limit:max_int in
  (* warm the block cache and the TLBs *)
  for _ = 1 to 4 do
    ignore (call 1_000 : Hw.Cpu.trap)
  done;
  let traps = ref [] in
  let before = Gc.minor_words () in
  for _ = 1 to 1_000 do
    regs.eip <- 0;
    let a = call 1_000 in
    let b = call 1_000 in
    regs.eip <- 0;
    let c = call 1 in
    if a <> Hw.Cpu.Sys || b <> Hw.Cpu.Pf || c <> Hw.Cpu.No_trap then traps := (a, b, c) :: !traps
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "each call ended as expected" 0 (List.length !traps);
  if words >= 64. then Alcotest.failf "%.0f minor words over 3000 calls (limit 64)" words

(* --- Snapshot restore drops the cache -------------------------------------- *)

(* The cache is derived state: restore refills frames, so any block the
   target machine decoded before the restore describes bytes that no
   longer exist. Restoring into a machine that has already run (and
   cached blocks from its own, different history) must still replay the
   reference run bit-exactly. *)
let test_restore_drops_cache () =
  let spec = Workload.Figures.ctxsw_spec ~defense:Defense.split_standalone ~iters:40 in
  let run_to_end os = Snap.Replay.observe os (Kernel.Os.run ~fuel:Test_equiv.fuel os) in
  let reference = run_to_end (Workload.Harness.build spec) in
  let os1 = Workload.Harness.build spec in
  ignore (Kernel.Os.run ~fuel:5_000 os1 : Kernel.Os.stop_reason);
  let snap = Snap.Snapshot.checkpoint os1 in
  let os2 = Workload.Harness.build spec in
  ignore (Kernel.Os.run ~fuel:3_000 os2 : Kernel.Os.stop_reason);
  Snap.Snapshot.restore os2 snap;
  Alcotest.(check string) "restored run replays the reference bit-exactly" reference
    (run_to_end os2)

let suite =
  Test_equiv.
    [
      generated ~name:"block dispatch is bit-invisible" [ Exact ];
      Alcotest.test_case "golden scenarios identical on/off" `Quick
        (test_cells golden_specs [ Exact ]);
      Alcotest.test_case "cache engages under split defense" `Quick
        (test_cells [ golden "ctxsw/split" ] []);
      Alcotest.test_case "matrix identical on/off" `Slow (test_matrix [ Exact ]);
      Alcotest.test_case "inject seed-7 campaign identical on/off" `Slow
        (test_cells inject_scenarios [ Exact ]);
    ]
  @ [
    Alcotest.test_case "page-straddling insn: negative-block fallback" `Quick test_page_straddle;
    Alcotest.test_case "trap flag: one attempt, #DB pending" `Quick test_trap_flag_single_step;
    Alcotest.test_case "self-modifying store invalidates" `Quick test_smc_invalidation;
    Alcotest.test_case "note_hits equals repeated finds" `Quick test_note_hits_parity;
    Alcotest.test_case "snapshot restore drops the cache" `Quick test_restore_drops_cache;
    Alcotest.test_case "remap between calls takes effect at the next" `Quick
      test_remap_between_calls;
    Alcotest.test_case "store into a same-page successor block" `Quick
      test_smc_same_page_successor;
    Alcotest.test_case "itlb equal after every call (fifo)" `Quick
      (test_itlb_every_call Hw.Tlb.Fifo);
    Alcotest.test_case "itlb equal after every call (lru)" `Quick
      (test_itlb_every_call Hw.Tlb.Lru);
    Alcotest.test_case "cached loop: < 0.5 minor words per insn" `Quick
      (test_dispatch_allocation Hw.Tlb.Fifo);
    Alcotest.test_case "cached loop (lru): < 0.5 minor words per insn" `Quick
      (test_dispatch_allocation Hw.Tlb.Lru);
    Alcotest.test_case "trap exits allocate nothing" `Quick test_trap_exit_allocation;
  ]
