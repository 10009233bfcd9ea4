(* Hardware layer: physical memory, TLBs, MMU translation and permission
   semantics, CPU execution — including the TLB-desynchronization property
   the whole paper rests on. *)

let make_mmu ?(frames = 64) ?(itlb = 4) ?(dtlb = 4) () =
  let phys = Hw.Phys.create ~frames () in
  let cost = Hw.Cost.create () in
  let mmu = Hw.Mmu.create ~itlb_capacity:itlb ~dtlb_capacity:dtlb ~phys ~cost () in
  (phys, mmu)

(* --- Phys ---------------------------------------------------------------- *)

let test_phys_rw () =
  let phys = Hw.Phys.create ~frames:4 () in
  Hw.Phys.write32 phys ~frame:1 ~off:100 0xCAFEBABE;
  Alcotest.(check int) "read32" 0xCAFEBABE (Hw.Phys.read32 phys ~frame:1 ~off:100);
  Alcotest.(check int) "byte 0" 0xBE (Hw.Phys.read8 phys ~frame:1 ~off:100);
  Alcotest.(check int) "byte 3" 0xCA (Hw.Phys.read8 phys ~frame:1 ~off:103);
  Hw.Phys.copy_frame phys ~src:1 ~dst:2;
  Alcotest.(check int) "copied" 0xCAFEBABE (Hw.Phys.read32 phys ~frame:2 ~off:100);
  Hw.Phys.fill phys ~frame:2 0xFF;
  Alcotest.(check int) "filled" 0xFF (Hw.Phys.read8 phys ~frame:2 ~off:0)

let test_phys_bounds () =
  let phys = Hw.Phys.create ~frames:2 () in
  Alcotest.check_raises "bad frame" (Invalid_argument "Phys: frame 2 out of range")
    (fun () -> ignore (Hw.Phys.read8 phys ~frame:2 ~off:0));
  Alcotest.check_raises "off overflow" (Invalid_argument "Phys: offset 4093+4 out of page")
    (fun () -> ignore (Hw.Phys.read32 phys ~frame:0 ~off:4093))

(* --- TLB ----------------------------------------------------------------- *)

(* A present PTE word, user-writable unless told otherwise. *)
let pte ?(user = true) ?(nx = false) frame = Hw.Tlb.word ~frame ~writable:true ~user ~nx

let test_tlb_basics () =
  let tlb = Hw.Tlb.create ~name:"t" ~capacity:2 () in
  Hw.Tlb.fill tlb 1 (pte 10);
  Hw.Tlb.fill tlb 2 (pte 20);
  Alcotest.(check int) "hit 1" (pte 10) (Hw.Tlb.find tlb 1);
  Alcotest.(check int) "hit 2" (pte 20) (Hw.Tlb.find tlb 2);
  (* capacity 2: filling a third evicts the FIFO victim (vpn 1) *)
  Hw.Tlb.fill tlb 3 (pte 30);
  Alcotest.(check int) "size" 2 (Hw.Tlb.size tlb);
  Alcotest.(check int) "vpn1 evicted" (-1) (Hw.Tlb.peek tlb 1);
  Alcotest.(check int) "vpn3 present" (pte 30) (Hw.Tlb.peek tlb 3)

let test_tlb_replace_same_vpn () =
  let tlb = Hw.Tlb.create ~name:"t" ~capacity:2 () in
  Hw.Tlb.fill tlb 1 (pte 10);
  Hw.Tlb.fill tlb 1 (pte 99);
  Alcotest.(check int) "still one entry" 1 (Hw.Tlb.size tlb);
  Alcotest.(check int) "updated frame" 99 (Hw.Tlb.frame_of_word (Hw.Tlb.peek tlb 1))

let test_tlb_invalidate_flush () =
  let tlb = Hw.Tlb.create ~name:"t" ~capacity:8 () in
  Hw.Tlb.fill tlb 1 (pte 10);
  Hw.Tlb.fill tlb 2 (pte 20);
  Hw.Tlb.invalidate tlb 1;
  Alcotest.(check int) "invalidated" (-1) (Hw.Tlb.peek tlb 1);
  Hw.Tlb.flush tlb;
  Alcotest.(check int) "flushed" 0 (Hw.Tlb.size tlb);
  Alcotest.(check int) "flush count" 1 (Hw.Tlb.stats tlb).flushes

(* --- MMU ----------------------------------------------------------------- *)

let simple_walk table vpn = Option.value (Hashtbl.find_opt table vpn) ~default:(-1)

(* [Ok (frame, offset)], or [Error] with a copy of the fault the MMU
   wrote: the register itself is overwritten by the next fault *)
let translate phys mmu ~from_user access vaddr =
  let pa = Hw.Mmu.translate_result mmu ~from_user access vaddr in
  if pa < 0 then
    let f = Hw.Mmu.pending_fault mmu in
    Error { f with addr = f.addr }
  else Ok (Hw.Phys.frame_of_addr phys pa, Hw.Phys.off_of_addr phys pa)

let translated = function
  | Ok frame_off -> frame_off
  | Error f -> Alcotest.failf "unexpected %a" Hw.Mmu.pp_fault f

let test_mmu_translate_and_cache () =
  let phys, mmu = make_mmu () in
  let table = Hashtbl.create 4 in
  Hashtbl.replace table 5 (pte 7);
  Hw.Mmu.load_cr3 mmu (simple_walk table);
  Alcotest.(check (pair int int))
    "translation" (7, 42)
    (translated (translate phys mmu ~from_user:true Hw.Mmu.Read ((5 * 4096) + 42)));
  (* now served from the DTLB even if the pagetable changes *)
  Hashtbl.remove table 5;
  Alcotest.(check int) "cached" 7
    (fst (translated (translate phys mmu ~from_user:true Hw.Mmu.Read (5 * 4096))));
  (* but a fetch misses: the ITLB was never filled *)
  match translate phys mmu ~from_user:true Hw.Mmu.Fetch (5 * 4096) with
  | Error { kind = Hw.Mmu.Not_present; access = Hw.Mmu.Fetch; _ } -> ()
  | _ -> Alcotest.fail "expected fetch fault"

let test_mmu_supervisor_fault () =
  let phys, mmu = make_mmu () in
  let table = Hashtbl.create 4 in
  Hashtbl.replace table 1 (pte ~user:false 2);
  Hw.Mmu.load_cr3 mmu (simple_walk table);
  (match translate phys mmu ~from_user:true Hw.Mmu.Read 4096 with
  | Error { kind = Hw.Mmu.Protection; _ } -> ()
  | _ -> Alcotest.fail "user access to supervisor page must fault");
  (* a fault on miss must NOT fill the TLB *)
  Alcotest.(check int) "dtlb unfilled" (-1) (Hw.Tlb.peek (Hw.Mmu.dtlb mmu) 1);
  (* supervisor access works *)
  Alcotest.(check int) "supervisor ok" 2
    (fst (translated (translate phys mmu ~from_user:false Hw.Mmu.Read 4096)))

(* The MMU keeps one fault register, like x86's CR2: every fault
   overwrites the same record, so a fault kept past its trap is a copy
   ([translate]'s), and the copy survives the next fault. *)
let test_mmu_fault_register () =
  let phys, mmu = make_mmu () in
  Hw.Mmu.load_cr3 mmu (fun _ -> -1);
  let first = translate phys mmu ~from_user:true Hw.Mmu.Read 4096 in
  let reg = Hw.Mmu.pending_fault mmu in
  ignore (translate phys mmu ~from_user:false Hw.Mmu.Fetch (9 * 4096));
  Alcotest.(check bool) "one register" true (reg == Hw.Mmu.pending_fault mmu);
  Alcotest.(check int) "register overwritten" (9 * 4096) reg.addr;
  match first with
  | Error { addr = 4096; access = Hw.Mmu.Read; from_user = true; _ } -> ()
  | _ -> Alcotest.fail "the kept copy changed"

let test_mmu_nx () =
  let phys, mmu = make_mmu () in
  let table = Hashtbl.create 4 in
  Hashtbl.replace table 1 (pte ~nx:true 2);
  Hw.Mmu.load_cr3 mmu (simple_walk table);
  (* nx not enforced on legacy hardware *)
  Alcotest.(check int) "legacy fetch ok" 2
    (fst (translated (translate phys mmu ~from_user:true Hw.Mmu.Fetch 4096)));
  Hw.Mmu.flush_tlbs mmu;
  Hw.Mmu.set_nx mmu true;
  match translate phys mmu ~from_user:true Hw.Mmu.Fetch 4096 with
  | Error { kind = Hw.Mmu.Protection; access = Hw.Mmu.Fetch; _ } -> ()
  | _ -> Alcotest.fail "nx fetch must fault"

(* The heart of the paper: with a supervisor PTE toggled around TLB loads,
   the ITLB and DTLB hold different frames for the same virtual page, and
   both keep servicing their kind of access while the PTE stays locked. *)
let test_tlb_desync () =
  let phys, mmu = make_mmu () in
  let code_frame = 3 and data_frame = 4 in
  Hw.Phys.blit_from_string phys ~frame:code_frame ~off:0 "CODE";
  Hw.Phys.blit_from_string phys ~frame:data_frame ~off:0 "DATA";
  let entry = ref (pte ~user:false code_frame) in
  let table vpn = if vpn = 9 then !entry else -1 in
  Hw.Mmu.load_cr3 mmu table;
  let addr = 9 * 4096 in
  (* kernel: point at the code copy, unrestrict, let a fetch fill the ITLB,
     restrict again *)
  entry := pte code_frame;
  ignore (Hw.Mmu.Fast.fetch8 mmu ~from_user:true addr);
  entry := pte ~user:false code_frame;
  (* kernel: point at the data copy, unrestrict, touch, restrict *)
  entry := pte data_frame;
  Hw.Mmu.touch_read mmu addr;
  entry := pte ~user:false data_frame;
  (* desynchronized: same virtual address, two physical locations *)
  Alcotest.(check int) "fetch reads CODE" (Char.code 'C') (Hw.Mmu.Fast.fetch8 mmu ~from_user:true addr);
  Alcotest.(check int) "read reads DATA" (Char.code 'D') (Hw.Mmu.Fast.read8 mmu ~from_user:true addr);
  Hw.Mmu.Fast.write8 mmu ~from_user:true (addr + 1) (Char.code 'X');
  Alcotest.(check int) "write hits data copy" (Char.code 'X')
    (Hw.Phys.read8 phys ~frame:data_frame ~off:1);
  Alcotest.(check int) "code copy untouched" (Char.code 'O')
    (Hw.Phys.read8 phys ~frame:code_frame ~off:1);
  (* and with the PTE restricted, a fresh access (after invlpg) faults *)
  Hw.Mmu.invlpg mmu 9;
  match Hw.Mmu.Fast.read8 mmu ~from_user:true addr with
  | exception Hw.Mmu.Pending_fault -> ()
  | _ -> Alcotest.fail "restricted PTE must fault after invlpg"

(* --- CPU ----------------------------------------------------------------- *)

let cpu_fixture program =
  let phys, mmu = make_mmu ~itlb:16 ~dtlb:16 () in
  let a = Isa.Asm.assemble ~origin:0 program in
  Hw.Phys.blit_from_string phys ~frame:1 ~off:0 a.code;
  let table = Hashtbl.create 8 in
  (* identity-ish: vpn 0 -> frame 1 (code+data), vpn 1 -> frame 2 (stack) *)
  Hashtbl.replace table 0 (pte 1);
  Hashtbl.replace table 1 (pte 2);
  Hw.Mmu.load_cr3 mmu (simple_walk table);
  let regs = Hw.Cpu.create_regs () in
  Hw.Cpu.set regs Isa.Reg.ESP 8000;
  (mmu, regs)

(* One instruction on the exact path: a one-instruction [run_block] on
   the MMU's own environment, which has no block cache. *)
let step mmu regs =
  Hw.Cpu.run_block (Hw.Mmu.env mmu) mmu regs ~max_insns:1 ~tick_limit:max_int

let step_n mmu regs n =
  for _ = 1 to n do
    match step mmu regs with
    | Hw.Cpu.No_trap | Hw.Cpu.Sys -> ()
    | Hw.Cpu.Pf -> Alcotest.failf "unexpected fault: %a" Hw.Mmu.pp_fault (Hw.Mmu.pending_fault mmu)
    | _ -> Alcotest.fail "unexpected trap"
  done

let test_cpu_arith_flags () =
  let open Isa.Asm in
  let mmu, regs =
    cpu_fixture
      [ I (Mov_ri (EAX, 5)); I (Mov_ri (EBX, 5)); I (Sub (EAX, EBX)); I (Cmp_ri (EBX, 10)) ]
  in
  step_n mmu regs 3;
  Alcotest.(check int) "eax" 0 (Hw.Cpu.get regs Isa.Reg.EAX);
  Alcotest.(check bool) "zf" true regs.zf;
  step_n mmu regs 1;
  Alcotest.(check bool) "sf after cmp 5<10" true regs.sf

let test_cpu_stack_call_ret () =
  let open Isa.Asm in
  let mmu, regs =
    cpu_fixture
      [
        I (Mov_ri (EAX, 7));
        I (Push EAX);
        I (Call (Lbl "fn"));
        I (Pop ECX);
        I Hlt;
        L "fn";
        I (Mov_ri (EDX, 42));
        I Ret;
      ]
  in
  step_n mmu regs 6;
  Alcotest.(check int) "returned" 42 (Hw.Cpu.get regs Isa.Reg.EDX);
  Alcotest.(check int) "popped" 7 (Hw.Cpu.get regs Isa.Reg.ECX);
  Alcotest.(check int) "esp balanced" 8000 (Hw.Cpu.get regs Isa.Reg.ESP)

let test_cpu_wraparound () =
  let open Isa.Asm in
  let mmu, regs = cpu_fixture [ I (Mov_ri (EAX, 0xFFFFFFFF)); I (Add_ri (EAX, 2)) ] in
  step_n mmu regs 2;
  Alcotest.(check int) "wraps to 1" 1 (Hw.Cpu.get regs Isa.Reg.EAX)

let test_cpu_fault_restart () =
  let open Isa.Asm in
  (* Store to an unmapped page faults; after the kernel maps it, restarting
     the same instruction succeeds with identical register state. *)
  let phys, mmu = make_mmu () in
  let a = Isa.Asm.assemble ~origin:0 [ I (Mov_ri (EAX, 0x55)); I (Storeb (EBX, 0, EAX)) ] in
  Hw.Phys.blit_from_string phys ~frame:1 ~off:0 a.code;
  let table = Hashtbl.create 4 in
  Hashtbl.replace table 0 (pte 1);
  Hw.Mmu.load_cr3 mmu (simple_walk table);
  let regs = Hw.Cpu.create_regs () in
  Hw.Cpu.set regs Isa.Reg.EBX 4096;
  step_n mmu regs 1;
  let eip_before = regs.eip in
  (match step mmu regs with
  | Hw.Cpu.Pf ->
    Alcotest.(check int) "fault addr" 4096 (Hw.Mmu.pending_fault mmu).addr;
    Alcotest.(check int) "eip unchanged" eip_before regs.eip
  | _ -> Alcotest.fail "expected page fault");
  Hashtbl.replace table 1 (pte 2);
  step_n mmu regs 1;
  Alcotest.(check int) "store landed" 0x55 (Hw.Phys.read8 phys ~frame:2 ~off:0)

let test_cpu_debug_trap () =
  let open Isa.Asm in
  let mmu, regs = cpu_fixture [ I Nop; I Nop ] in
  regs.tf <- true;
  Alcotest.(check bool) "#DB after retire" true (step mmu regs = Hw.Cpu.Db);
  Alcotest.(check int) "retired" 1 regs.eip;
  regs.tf <- false;
  Alcotest.(check bool) "no trap" true (step mmu regs = Hw.Cpu.No_trap)

let test_cpu_hlt_faults () =
  let open Isa.Asm in
  let mmu, regs = cpu_fixture [ I Hlt ] in
  if step mmu regs <> Hw.Cpu.Gp then Alcotest.fail "hlt in user mode must #GP"

let suite =
  [
    Alcotest.test_case "phys read/write/copy/fill" `Quick test_phys_rw;
    Alcotest.test_case "phys bounds checking" `Quick test_phys_bounds;
    Alcotest.test_case "tlb insert/evict fifo" `Quick test_tlb_basics;
    Alcotest.test_case "tlb same-vpn replace" `Quick test_tlb_replace_same_vpn;
    Alcotest.test_case "tlb invalidate/flush" `Quick test_tlb_invalidate_flush;
    Alcotest.test_case "mmu translate + cache independence" `Quick test_mmu_translate_and_cache;
    Alcotest.test_case "mmu supervisor faults" `Quick test_mmu_supervisor_fault;
    Alcotest.test_case "mmu fault register: one record, copied to keep" `Quick
      test_mmu_fault_register;
    Alcotest.test_case "mmu nx enforcement" `Quick test_mmu_nx;
    Alcotest.test_case "TLB desynchronization (the core trick)" `Quick test_tlb_desync;
    Alcotest.test_case "cpu arithmetic and flags" `Quick test_cpu_arith_flags;
    Alcotest.test_case "cpu push/call/ret/pop" `Quick test_cpu_stack_call_ret;
    Alcotest.test_case "cpu 32-bit wraparound" `Quick test_cpu_wraparound;
    Alcotest.test_case "cpu fault-and-restart" `Quick test_cpu_fault_restart;
    Alcotest.test_case "cpu single-step trap" `Quick test_cpu_debug_trap;
    Alcotest.test_case "cpu hlt is privileged" `Quick test_cpu_hlt_faults;
  ]
