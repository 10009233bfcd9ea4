(* White-box tests of the split-memory core: splitting, Algorithm 1 (both
   branches), Algorithm 2, response modes, policies, and interaction with
   fork/COW and teardown. *)

open Isa.Asm

(* Victim that jumps to attacker-controlled bytes (attack distillation). *)
let jumper_image () =
  Kernel.Image.build ~name:"jumper"
    ~data:(fun ~lbl:_ -> [ L "buf"; Space 64 ])
    ~code:(fun ~lbl ->
      (L "main" :: Guest.sys_read_imm ~buf:(lbl "buf") ~len:64)
      @ [ I (Mov_ri (ESI, lbl "buf")); I (Jmp_r ESI) ])
    ~entry:"main" ()

(* Victim that receives bytes then parks on a second read, so its address
   space can be inspected while alive. *)
let parker_image () =
  Kernel.Image.build ~name:"parker"
    ~data:(fun ~lbl:_ -> [ L "buf"; Space 64; L "buf2"; Space 8 ])
    ~code:(fun ~lbl ->
      (L "main" :: Guest.sys_read_imm ~buf:(lbl "buf") ~len:64)
      @ Guest.sys_read_imm ~buf:(lbl "buf2") ~len:8
      @ Guest.sys_exit 0)
    ~entry:"main" ()

let spawn_under ?(image = jumper_image ()) response =
  let protection = Split_memory.protection ~response () in
  let k = Kernel.Os.create ~protection () in
  let p = Kernel.Os.spawn k image in
  (k, p)

let buf_vpn image = Kernel.Image.label image "buf" / 4096
let buf_addr image = Kernel.Image.label image "buf"

let heap_region : Kernel.Aspace.region =
  {
    lo = 0x300;
    hi = 0x301;
    kind = Kernel.Pte.Heap;
    writable = true;
    execable = false;
    source = Kernel.Aspace.Zero;
    share = None;
  }

(* --- splitting mechanics -------------------------------------------------- *)

let test_split_page_structure () =
  let k, p = spawn_under Split_memory.Response.Break in
  let pte = Kernel.Os.map_demand_page k p heap_region 0x300 in
  Alcotest.(check bool) "split" true (Kernel.Pte.is_split pte);
  Alcotest.(check bool) "restricted" false pte.user;
  let s = Option.get pte.split in
  Alcotest.(check bool) "two distinct frames" true (s.code_frame <> s.data_frame);
  Alcotest.(check string) "copies identical at birth"
    (Hw.Phys.to_string (Kernel.Os.phys k) ~frame:s.code_frame)
    (Hw.Phys.to_string (Kernel.Os.phys k) ~frame:s.data_frame)

let test_split_idempotent () =
  let k, p = spawn_under Split_memory.Response.Break in
  let pte = Kernel.Os.map_demand_page k p heap_region 0x300 in
  let frames_before = Kernel.Frame_alloc.in_use (Kernel.Os.alloc k) in
  Split_memory.Splitter.split_page (Kernel.Os.ctx k) pte;
  Alcotest.(check int) "no second allocation" frames_before
    (Kernel.Frame_alloc.in_use (Kernel.Os.alloc k))

let test_injected_bytes_reach_data_copy_only () =
  let image = parker_image () in
  let k, p = spawn_under ~image Split_memory.Response.Break in
  ignore (Kernel.Os.run k);
  ignore (Kernel.Os.feed_stdin k p "\x90\x90\x90\x90");
  ignore (Kernel.Os.run k);
  (* victim parked on its second read; inspect the buf page *)
  let off = buf_addr image mod 4096 in
  match Kernel.Aspace.pte p.aspace (buf_vpn image) with
  | Some ({ split = Some s; _ } : Kernel.Pte.t) ->
    Alcotest.(check int) "data copy has the nops" 0x90
      (Hw.Phys.read8 (Kernel.Os.phys k) ~frame:s.data_frame ~off);
    Alcotest.(check int) "code copy pristine (zeros)" 0
      (Hw.Phys.read8 (Kernel.Os.phys k) ~frame:s.code_frame ~off)
  | _ -> Alcotest.fail "expected split pte"

(* --- Algorithm 1 / Algorithm 2 ------------------------------------------- *)

let mapped_split_pte k p =
  let pte = Kernel.Os.map_demand_page k p heap_region 0x300 in
  (pte, Option.get pte.Kernel.Pte.split)

let test_algorithm1_data_branch_loads_dtlb () =
  let k, p = spawn_under Split_memory.Response.Break in
  let pte, s = mapped_split_pte k p in
  Hw.Mmu.load_cr3 (Kernel.Os.mmu k) p.aspace.walker;
  let vpn = 0x300 in
  let fault : Hw.Mmu.fault =
    { addr = vpn * 4096; access = Hw.Mmu.Read; kind = Hw.Mmu.Protection; from_user = true }
  in
  (match (Kernel.Os.protection k).on_protection_fault (Kernel.Os.ctx k) p fault with
  | Kernel.Protection.Handled -> ()
  | Kernel.Protection.Not_ours -> Alcotest.fail "split fault not handled");
  let w = Hw.Tlb.peek (Hw.Mmu.dtlb (Kernel.Os.mmu k)) vpn in
  if w < 0 then Alcotest.fail "dtlb not loaded";
  Alcotest.(check int) "dtlb -> data copy" s.data_frame (Hw.Tlb.frame_of_word w);
  Alcotest.(check int) "itlb untouched" (-1) (Hw.Tlb.peek (Hw.Mmu.itlb (Kernel.Os.mmu k)) vpn);
  Alcotest.(check bool) "pte re-restricted" false pte.Kernel.Pte.user

let test_algorithm1_code_branch_single_steps () =
  let k, p = spawn_under Split_memory.Response.Break in
  let pte, s = mapped_split_pte k p in
  Hw.Mmu.load_cr3 (Kernel.Os.mmu k) p.aspace.walker;
  let addr = 0x300 * 4096 in
  p.regs.eip <- addr;
  let fault : Hw.Mmu.fault =
    { addr; access = Hw.Mmu.Fetch; kind = Hw.Mmu.Protection; from_user = true }
  in
  (match (Kernel.Os.protection k).on_protection_fault (Kernel.Os.ctx k) p fault with
  | Kernel.Protection.Handled -> ()
  | Kernel.Protection.Not_ours -> Alcotest.fail "split fetch fault not handled");
  Alcotest.(check bool) "trap flag set" true p.regs.tf;
  Alcotest.(check bool) "pending addr recorded" true (p.pending_fault_addr = addr);
  Alcotest.(check bool) "pte unrestricted for the restart" true pte.Kernel.Pte.user;
  Alcotest.(check int) "pte points at code copy" s.code_frame pte.Kernel.Pte.frame;
  (* the debug interrupt (Algorithm 2) re-restricts *)
  Alcotest.(check bool) "trap consumed" true
    ((Kernel.Os.protection k).on_debug_trap (Kernel.Os.ctx k) p);
  Alcotest.(check bool) "tf cleared" false p.regs.tf;
  Alcotest.(check bool) "pte restricted again" false pte.Kernel.Pte.user;
  Alcotest.(check bool) "pending cleared" true (p.pending_fault_addr = -1)

let test_stray_debug_trap_not_consumed () =
  let k, p = spawn_under Split_memory.Response.Break in
  Alcotest.(check bool) "no pending -> not ours" false
    ((Kernel.Os.protection k).on_debug_trap (Kernel.Os.ctx k) p)

(* --- response modes -------------------------------------------------------- *)

let run_attack ?payload response =
  let image = jumper_image () in
  let k, p = spawn_under ~image response in
  ignore (Kernel.Os.run k);
  let payload =
    match payload with
    | Some s -> s
    | None -> Attack.Shellcode.execve_bin_sh ~sled:4 ~base:(buf_addr image) ()
  in
  ignore (Kernel.Os.feed_stdin k p payload);
  ignore (Kernel.Os.run k);
  (k, p)

let test_break_mode () =
  let k, p = run_attack Split_memory.Response.Break in
  Alcotest.(check bool) "detected" true (p.detections > 0);
  Alcotest.(check bool) "no shell" false (Kernel.Event_log.shell_spawned (Kernel.Os.log k));
  match p.state with
  | Kernel.Proc.Zombie (Kernel.Proc.Killed Kernel.Proc.Sigill) -> ()
  | s -> Alcotest.failf "expected SIGILL, got %a" Kernel.Proc.pp_state s

let test_observe_mode_continues () =
  let k, p = run_attack (Split_memory.Response.Observe { sebek = true }) in
  Alcotest.(check bool) "detected" true (p.detections > 0);
  Alcotest.(check bool) "shell spawned anyway" true
    (Kernel.Event_log.shell_spawned (Kernel.Os.log k));
  Alcotest.(check bool) "sebek active" true p.sebek_active

let test_observe_mode_locks_page () =
  (* payload parks on a read so the locked page can be inspected live *)
  let image = jumper_image () in
  let base = buf_addr image in
  let payload =
    Attack.Shellcode.with_layout ~base (fun _ ->
        [
          I (Mov_ri (EAX, 3));
          I (Mov_ri (EBX, 0));
          I (Mov_ri (ECX, base));
          I (Mov_ri (EDX, 4));
          I (Int 0x80);
        ])
  in
  let _k, p = run_attack ~payload (Split_memory.Response.Observe { sebek = false }) in
  Alcotest.(check bool) "victim alive and parked" true (p.state <> Kernel.Proc.Runnable && not (Kernel.Proc.is_zombie p));
  match Kernel.Aspace.pte p.aspace (buf_vpn image) with
  | Some ({ split = Some s; _ } as pte : Kernel.Pte.t) ->
    Alcotest.(check bool) "locked to data" true s.locked_to_data;
    Alcotest.(check int) "mapping is the data copy" s.data_frame pte.frame;
    Alcotest.(check bool) "unrestricted" true pte.user
  | _ -> Alcotest.fail "split pte expected"

let test_observe_detects_only_once () =
  let _, p = run_attack (Split_memory.Response.Observe { sebek = false }) in
  Alcotest.(check int) "single detection per page (then locked)" 1 p.detections

let test_forensics_dump_contents () =
  let k, p = run_attack (Split_memory.Response.Forensics { payload = None }) in
  (match
     Kernel.Event_log.find_first (Kernel.Os.log k) (function
       | Kernel.Event_log.Shellcode_dump _ -> true
       | _ -> false)
   with
  | Some (Kernel.Event_log.Shellcode_dump { bytes; _ }) ->
    Alcotest.(check int) "20 bytes" 20 (String.length bytes);
    Alcotest.(check char) "starts with the nop sled" '\x90' bytes.[0]
  | _ -> Alcotest.fail "no shellcode dump");
  match p.state with
  | Kernel.Proc.Zombie (Kernel.Proc.Killed _) -> ()
  | s -> Alcotest.failf "expected kill, got %a" Kernel.Proc.pp_state s

let test_forensics_payload_runs () =
  let k, p =
    run_attack (Split_memory.Response.Forensics { payload = Some Attack.Shellcode.exit0 })
  in
  Alcotest.(check bool) "forensic injection logged" true
    (Kernel.Event_log.find_first (Kernel.Os.log k) (function
       | Kernel.Event_log.Forensic_injected _ -> true
       | _ -> false)
    <> None);
  match p.state with
  | Kernel.Proc.Zombie (Kernel.Proc.Exited 0) -> ()
  | s -> Alcotest.failf "expected exit(0) via forensic payload, got %a" Kernel.Proc.pp_state s

(* --- policies --------------------------------------------------------------- *)

let region kind ~writable ~execable : Kernel.Aspace.region =
  { lo = 0; hi = 1; kind; writable; execable; source = Kernel.Aspace.Zero; share = None }

let test_policy_mixed_only () =
  let p = Split_memory.Policy.Mixed_only in
  Alcotest.(check bool) "mixed rw+x" true
    (Split_memory.Policy.should_split p (region Kernel.Pte.Mixed ~writable:true ~execable:true) ~vpn:1);
  Alcotest.(check bool) "mmap rwx" true
    (Split_memory.Policy.should_split p (region Kernel.Pte.Mmap ~writable:true ~execable:true) ~vpn:1);
  Alcotest.(check bool) "plain data" false
    (Split_memory.Policy.should_split p (region Kernel.Pte.Data ~writable:true ~execable:false) ~vpn:1);
  Alcotest.(check bool) "code" false
    (Split_memory.Policy.should_split p (region Kernel.Pte.Code ~writable:false ~execable:true) ~vpn:1)

let test_policy_fraction () =
  let count pct =
    let p = Split_memory.Policy.Fraction pct in
    let r = region Kernel.Pte.Heap ~writable:true ~execable:false in
    List.length
      (List.filter
         (fun vpn -> Split_memory.Policy.should_split p r ~vpn)
         (List.init 1000 (fun i -> i)))
  in
  Alcotest.(check int) "0%" 0 (count 0);
  Alcotest.(check int) "100%" 1000 (count 100);
  let c50 = count 50 in
  Alcotest.(check bool) "50% roughly half" true (c50 > 400 && c50 < 600);
  Alcotest.(check int) "deterministic" c50 (count 50)

(* --- teardown / fork interactions ------------------------------------------ *)

let test_split_pages_freed_on_exit () =
  let k, _ = run_attack Split_memory.Response.Break in
  Alcotest.(check int) "all frames freed" 0 (Kernel.Frame_alloc.in_use (Kernel.Os.alloc k))

(* Guest forks after touching a data page; both processes park on reads so
   the shared split frames can be inspected. *)
let forker_image () =
  Kernel.Image.build ~name:"forker"
    ~data:(fun ~lbl:_ -> [ L "cell"; Word32 0; L "buf"; Space 8 ])
    ~code:(fun ~lbl ->
      [
        L "main";
        I (Mov_ri (EBX, lbl "cell"));
        I (Mov_ri (EAX, 1));
        I (Store (EBX, 0, EAX));
        I (Mov_ri (EAX, 2));
        I (Int 0x80);
      ]
      @ Guest.sys_read_imm ~buf:(lbl "buf") ~len:4
      @ Guest.sys_exit 0)
    ~entry:"main" ()

let test_fork_shares_split_frames () =
  let image = forker_image () in
  let k, parent = spawn_under ~image Split_memory.Response.Break in
  Alcotest.(check bool) "both parked" true (Kernel.Os.run k = Kernel.Os.All_blocked);
  let child =
    match Kernel.Os.children_of k parent with [ c ] -> c | _ -> Alcotest.fail "one child"
  in
  let vpn = Kernel.Image.label image "cell" / 4096 in
  let ppte = Option.get (Kernel.Aspace.pte parent.aspace vpn) in
  let cpte = Option.get (Kernel.Aspace.pte child.aspace vpn) in
  let ps = Option.get ppte.Kernel.Pte.split in
  let cs = Option.get cpte.Kernel.Pte.split in
  Alcotest.(check int) "code copy shared" ps.code_frame cs.code_frame;
  Alcotest.(check int) "data copy shared (COW)" ps.data_frame cs.data_frame;
  Alcotest.(check bool) "both marked cow" true (ppte.cow && cpte.cow);
  let alloc = Kernel.Os.alloc k in
  Alcotest.(check int) "code frame rc" 2 (Kernel.Frame_alloc.refcount alloc ps.code_frame);
  Alcotest.(check int) "data frame rc" 2 (Kernel.Frame_alloc.refcount alloc ps.data_frame)

let suite =
  [
    Alcotest.test_case "split page structure" `Quick test_split_page_structure;
    Alcotest.test_case "split is idempotent" `Quick test_split_idempotent;
    Alcotest.test_case "injected bytes only on data copy" `Quick
      test_injected_bytes_reach_data_copy_only;
    Alcotest.test_case "Algorithm 1: data branch" `Quick test_algorithm1_data_branch_loads_dtlb;
    Alcotest.test_case "Algorithm 1+2: code branch" `Quick test_algorithm1_code_branch_single_steps;
    Alcotest.test_case "stray debug trap ignored" `Quick test_stray_debug_trap_not_consumed;
    Alcotest.test_case "break mode kills" `Quick test_break_mode;
    Alcotest.test_case "observe mode: attack proceeds" `Quick test_observe_mode_continues;
    Alcotest.test_case "observe mode: page locked to data" `Quick test_observe_mode_locks_page;
    Alcotest.test_case "observe logs only first execution" `Quick test_observe_detects_only_once;
    Alcotest.test_case "forensics dumps shellcode" `Quick test_forensics_dump_contents;
    Alcotest.test_case "forensic payload substitution" `Quick test_forensics_payload_runs;
    Alcotest.test_case "policy: mixed-only" `Quick test_policy_mixed_only;
    Alcotest.test_case "policy: fraction deterministic" `Quick test_policy_fraction;
    Alcotest.test_case "split frames freed at exit" `Quick test_split_pages_freed_on_exit;
    Alcotest.test_case "fork shares split frames COW" `Quick test_fork_shares_split_frames;
  ]
