(* The decoded basic-block cache (lib/hw/bbcache) and its dispatch path.

   The contract under test is run_block's bit-exactness pledge: with the
   cache on, every observable — event log, every cost counter, both TLB
   statistics, the detection verdicts of the defense x attack matrix and
   of the seed-7 fault-injection campaign — must equal exact dispatch's
   (the same machine with [env.cache = None]), byte for byte. Around the
   differential property: page-edge block construction (the
   once-"unreachable" [Truncated] decode arm is now exercised, and the
   negative-block fallback must stay exact on both paths), the trap-flag
   single-step window, generation-based invalidation under
   self-modifying stores, [Tlb.note_hits] parity with individual finds
   including LRU recency, and snapshot restore treating the cache as
   derived state. *)

let run_to_end os = Kernel.Os.run ~fuel:2_000_000 os

let final_state os =
  let c = Kernel.Os.cost os in
  let tlb t =
    let s = Hw.Tlb.stats t in
    (s.Hw.Tlb.hits, s.misses, s.flushes, s.invalidations, s.evictions)
  in
  let mmu = Kernel.Os.mmu os in
  ( (c.cycles, c.insns, c.traps, c.split_faults, c.single_steps, c.syscalls, c.ctx_switches),
    (tlb (Hw.Mmu.itlb mmu), tlb (Hw.Mmu.dtlb mmu)),
    List.map
      (Fmt.str "%a" Kernel.Event_log.pp_event)
      (Kernel.Event_log.to_list (Kernel.Os.log os)) )

(* Switch one freshly built machine to exact dispatch. *)
let exact os = (Kernel.Os.env os).Hw.Exec_env.cache <- None

(* Build and run the same spec twice — cached dispatch, then exact. *)
let run_both spec =
  let go tune =
    let os = Workload.Harness.build spec in
    tune os;
    ignore (run_to_end os : Kernel.Os.stop_reason);
    os
  in
  (go ignore, go exact)

(* --- The differential property -------------------------------------------- *)

let gen_spec =
  QCheck.Gen.(
    let* defense =
      oneofl
        [ Defense.unprotected; Defense.nx; Defense.split_standalone; Defense.split_plus_cfi ]
    in
    let* guest =
      oneof
        [
          map (fun iters -> Workload.Guests.nbench ~iters ()) (int_range 1 4);
          map (fun size -> Workload.Guests.gzip ~size ()) (int_range 512 2048);
          map (fun iters -> Workload.Guests.syscall_bench ~iters ()) (int_range 5 40);
        ]
    in
    return (defense, guest))

let print_spec (defense, guest) =
  Fmt.str "%s/%s" (Defense.name defense) guest.Kernel.Image.name

let prop_bbcache_invisible =
  QCheck.Test.make ~name:"block dispatch is bit-invisible" ~count:30
    (QCheck.make ~print:print_spec gen_spec)
    (fun (defense, guest) ->
      let on, off = run_both (Workload.Harness.single ~defense guest) in
      final_state on = final_state off)

(* --- Golden scenarios on/off ---------------------------------------------- *)

let golden_specs =
  [
    ("apache/split", Workload.Figures.apache_spec ~defense:Defense.split_standalone ~size:2048 ~requests:3);
    ("gzip/nx", Workload.Figures.gzip_spec ~defense:Defense.nx ~size:8192);
    ("ctxsw/split", Workload.Figures.ctxsw_spec ~defense:Defense.split_standalone ~iters:40);
    ("ctxsw/split+cfi", Workload.Figures.ctxsw_spec ~defense:Defense.split_plus_cfi ~iters:25);
    ("nbench/unprotected", Workload.Harness.single ~defense:Defense.unprotected (Workload.Guests.nbench ~iters:2 ()));
  ]

let test_goldens_on_off () =
  List.iter
    (fun (name, spec) ->
      let on, off = run_both spec in
      Alcotest.(check bool) (name ^ " identical on/off") true (final_state on = final_state off))
    golden_specs

(* The cache must actually be live under the protected scenarios above —
   a trivially-disabled cache would pass every differential test. *)
let test_cache_engaged () =
  let on, _ =
    run_both (Workload.Figures.ctxsw_spec ~defense:Defense.split_standalone ~iters:40)
  in
  match Kernel.Os.bbcache on with
  | None -> Alcotest.fail "bbcache missing with default on"
  | Some c ->
    let s = Hw.Bbcache.stats c in
    Alcotest.(check bool) "blocks built" true (s.Hw.Bbcache.blocks_built > 0);
    Alcotest.(check bool) "block hits" true (s.hits > 0)

(* --- Detection modes on/off ----------------------------------------------- *)

(* One matrix cell driven by hand through [Attack.Runner.start ~tune], so
   the machine can be switched to exact dispatch before the exploit runs.
   Injection rows replay [Attack.Wilander.run] with the shellcode on the
   stack (selector byte 0); reuse rows replay [Reuse.Campaign.run]. *)
let matrix_cell ~tune (defense, row) =
  let session =
    match row with
    | Reuse.Campaign.Injection t ->
      let s = Attack.Runner.start ~defense ~tune (Attack.Wilander.victim t) in
      Attack.Runner.send s "\000";
      let landing = Attack.Runner.leak_addr (Attack.Runner.recv s) in
      Attack.Runner.send s (Attack.Wilander.shellcode t ~landing);
      ignore (Attack.Runner.step s : Kernel.Os.stop_reason);
      Attack.Runner.send s (Attack.Wilander.packet t ~landing);
      s
    | Reuse.Campaign.Reuse a ->
      let img = Reuse.Victim.image () in
      let s = Attack.Runner.start ~defense ~tune img in
      Attack.Runner.send s (Reuse.Campaign.packet img a);
      s
  in
  ignore (Attack.Runner.step session : Kernel.Os.stop_reason);
  (Attack.Runner.outcome session, final_state session.k)

(* All 30 defense x attack matrix cells — injection and code-reuse rows —
   must end in identical machines with block dispatch on and off, and the
   hand-driven cells must reproduce [Reuse.Campaign.matrix]. *)
let test_matrix_on_off () =
  let reference = Reuse.Campaign.matrix ~jobs:2 () in
  Alcotest.(check int) "30 cells" 30 (List.length reference);
  Alcotest.(check bool) "matrix matches threat model" true (Reuse.Campaign.check reference);
  let cells =
    List.concat_map
      (fun (_, row) -> List.map (fun (_, d) -> (d, row)) Reuse.Campaign.defenses)
      Reuse.Campaign.rows
  in
  let runs =
    Fleet.map ~jobs:2 (fun c -> (matrix_cell ~tune:ignore c, matrix_cell ~tune:exact c)) cells
  in
  List.iter2
    (fun (cell : Reuse.Campaign.cell) run ->
      let name = cell.attack ^ "/" ^ cell.defense in
      match run with
      | Error (e : Fleet.error) -> Alcotest.fail (name ^ ": " ^ e.reason)
      | Ok ((outcome_on, on), (outcome_off, off)) ->
        Alcotest.(check bool) (name ^ " reproduces the matrix") true (cell.result = Ok outcome_on);
        Alcotest.(check bool) (name ^ " identical on/off") true
          (outcome_on = outcome_off && on = off))
    reference runs

(* One plan's fault-free twin and armed run, built as [Inject.run_plan]
   builds them, with [tune] applied to each machine before the engine
   arms. *)
let inject_runs ~tune (plan : Inject.Plan.t) =
  let scenario = Option.get (Snap.Scenario.find plan.scenario) in
  let base = scenario.start () in
  tune base;
  let base_stop = Kernel.Os.run ~fuel:plan.fuel base in
  let os = scenario.start () in
  tune os;
  let eng = Inject.Engine.arm os plan in
  let stop = Kernel.Os.run ~fuel:plan.fuel os in
  ( (base_stop, final_state base),
    (stop, final_state os, Inject.Engine.injected eng, Inject.Engine.detections eng) )

(* The seed-7 fault-injection campaign: both machines of every plan — twin
   and armed run, including injected-fault details and detector firings —
   identical under block dispatch on and off. *)
let test_inject_on_off () =
  let plans = Inject.default_plans ~seed:7 () in
  Alcotest.(check int) "12 plans" 12 (List.length plans);
  let _, _, escaped, _ = Inject.tally (Inject.campaign ~jobs:2 plans) in
  Alcotest.(check int) "no escapes" 0 escaped;
  List.iter2
    (fun (plan : Inject.Plan.t) run ->
      match run with
      | Error (e : Fleet.error) -> Alcotest.fail (plan.label ^ ": " ^ e.reason)
      | Ok same -> Alcotest.(check bool) (plan.label ^ " identical on/off") true same)
    plans
    (Fleet.map ~jobs:2 (fun p -> inject_runs ~tune:ignore p = inject_runs ~tune:exact p) plans)

(* --- Page-edge blocks and the negative-block fallback ---------------------- *)

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
  let phys = Hw.Phys.create ~frames:8 () in
  let cost = Hw.Cost.create () in
  let mmu = Hw.Mmu.create ~itlb_capacity:16 ~dtlb_capacity:16 ~phys ~cost () in
  let a = Isa.Asm.assemble ~origin:0 straddle_program in
  Hw.Phys.blit_from_string phys ~frame:1 ~off:0 (String.sub a.code 0 4096);
  Hw.Phys.blit_from_string phys ~frame:2 ~off:0
    (String.sub a.code 4096 (String.length a.code - 4096));
  let table : (int, Hw.Mmu.hw_pte) Hashtbl.t = Hashtbl.create 4 in
  Hashtbl.replace table 0
    { Hw.Mmu.frame = 1; present = true; writable = true; user = true; nx = false };
  Hashtbl.replace table 1
    { Hw.Mmu.frame = 2; present = true; writable = true; user = true; nx = false };
  Hw.Mmu.reload_cr3 mmu (fun vpn -> Hashtbl.find_opt table vpn);
  (phys, mmu, Hw.Cpu.create_regs (), a)

let test_page_straddle () =
  (* the decoder itself: operands past the page edge are [Truncated] *)
  let _, _, _, a = straddle_fixture () in
  (match Isa.Decode.of_string (String.sub a.code 0 4096) 4093 with
  | Error Isa.Decode.Truncated -> ()
  | _ -> Alcotest.fail "straddling insn must decode as Truncated at the page edge");
  (* reference: the per-instruction interpreter *)
  let _, mmu_ref, regs_ref, _ = straddle_fixture () in
  let retired_ref = ref 0 in
  let rec step_all () =
    match (Hw.Cpu.step mmu_ref regs_ref).outcome with
    | Ok Hw.Cpu.Retired ->
      incr retired_ref;
      step_all ()
    | Error (Hw.Cpu.General_protection _) -> () (* hlt *)
    | _ -> Alcotest.fail "reference run: unexpected outcome"
  in
  step_all ();
  Alcotest.(check int) "ecx" 0x11223344 (Hw.Cpu.get regs_ref Isa.Reg.ECX);
  Alcotest.(check int) "edx" 0x55667788 (Hw.Cpu.get regs_ref Isa.Reg.EDX);
  let itlb_ref = Hw.Tlb.stats (Hw.Mmu.itlb mmu_ref) in
  (* run_block over the same image, exact and cached *)
  let dispatch name ~cached =
    let phys, mmu, regs, _ = straddle_fixture () in
    let env = Hw.Exec_env.create () in
    if cached then env.Hw.Exec_env.cache <- Some (Hw.Bbcache.create ~phys ());
    let retired = ref 0 in
    let rec drive () =
      let br = Hw.Cpu.run_block env mmu regs ~max_insns:10_000 ~tick_limit:max_int in
      retired := !retired + br.Hw.Cpu.retired;
      match br.pending with
      | None -> drive ()
      | Some s -> (
        match s.outcome with
        | Error (Hw.Cpu.General_protection _) -> ()
        | _ -> Alcotest.fail (name ^ " run: unexpected pending step"))
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
   exactly one attempt — even with a cache installed — and hand the
   retired instruction back uncharged with [debug_trap] set, like
   [Cpu.step] does. *)
let test_trap_flag_single_step () =
  let _, mmu_ref, regs_ref, _ = straddle_fixture () in
  regs_ref.Hw.Cpu.tf <- true;
  ignore (Hw.Cpu.step mmu_ref regs_ref : Hw.Cpu.step);
  let phys, mmu, regs, _ = straddle_fixture () in
  let env = Hw.Exec_env.create () in
  env.Hw.Exec_env.cache <- Some (Hw.Bbcache.create ~phys ());
  regs.Hw.Cpu.tf <- true;
  let br = Hw.Cpu.run_block env mmu regs ~max_insns:100 ~tick_limit:max_int in
  Alcotest.(check int) "one attempt" 1 br.Hw.Cpu.attempts;
  Alcotest.(check int) "nothing retired in-loop" 0 br.retired;
  Alcotest.(check bool) "same registers as Cpu.step" true (regs = regs_ref);
  (* the fetch's walk is charged; the instruction itself is left to the
     kernel, exactly as after [Cpu.step] *)
  Alcotest.(check int) "same cycles as Cpu.step" (Hw.Mmu.cost mmu_ref).Hw.Cost.cycles
    (Hw.Mmu.cost mmu).cycles;
  match br.pending with
  | Some { outcome = Ok Hw.Cpu.Retired; debug_trap = true } -> ()
  | _ -> Alcotest.fail "expected a retired step with debug_trap pending"

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
  let entry vpn : Hw.Tlb.entry =
    { vpn; frame = vpn + 10; user = true; writable = true; nx = false }
  in
  let a = mk () and b = mk () in
  List.iter
    (fun v ->
      Hw.Tlb.insert a (entry v);
      Hw.Tlb.insert b (entry v))
    [ 1; 2; 3; 4 ];
  for _ = 1 to 5 do
    ignore (Hw.Tlb.find a 2 : Hw.Tlb.entry)
  done;
  Hw.Tlb.note_hits b 2 5;
  let sa = Hw.Tlb.stats a and sb = Hw.Tlb.stats b in
  Alcotest.(check int) "same hits" sa.Hw.Tlb.hits sb.Hw.Tlb.hits;
  Alcotest.(check int) "same misses" sa.misses sb.misses;
  (* vpn 2 is now the hottest entry in both; evicting inserts must pick
     the same victims *)
  List.iter
    (fun v ->
      Hw.Tlb.insert a (entry v);
      Hw.Tlb.insert b (entry v))
    [ 5; 6; 7 ];
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Fmt.str "vpn %d residency matches" v)
        (Hw.Tlb.peek a v <> None)
        (Hw.Tlb.peek b v <> None))
    [ 1; 2; 3; 4; 5; 6; 7 ];
  Alcotest.(check bool) "hot vpn survives in both" true (Hw.Tlb.peek b 2 <> None)

(* --- Snapshot restore drops the cache -------------------------------------- *)

(* The cache is derived state: restore refills frames, so any block the
   target machine decoded before the restore describes bytes that no
   longer exist. Restoring into a machine that has already run (and
   cached blocks from its own, different history) must still replay the
   reference run bit-exactly. *)
let test_restore_drops_cache () =
  let spec = Workload.Figures.ctxsw_spec ~defense:Defense.split_standalone ~iters:40 in
  let reference = Workload.Harness.build spec in
  ignore (run_to_end reference : Kernel.Os.stop_reason);
  let os1 = Workload.Harness.build spec in
  ignore (Kernel.Os.run ~fuel:5_000 os1 : Kernel.Os.stop_reason);
  let snap = Snap.Snapshot.checkpoint os1 in
  let os2 = Workload.Harness.build spec in
  ignore (Kernel.Os.run ~fuel:3_000 os2 : Kernel.Os.stop_reason);
  Snap.Snapshot.restore os2 snap;
  ignore (run_to_end os2 : Kernel.Os.stop_reason);
  Alcotest.(check bool)
    "restored run replays the reference bit-exactly" true
    (final_state os2 = final_state reference)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_bbcache_invisible;
    Alcotest.test_case "golden scenarios identical on/off" `Quick test_goldens_on_off;
    Alcotest.test_case "cache engages under split defense" `Quick test_cache_engaged;
    Alcotest.test_case "matrix identical on/off" `Slow test_matrix_on_off;
    Alcotest.test_case "inject seed-7 campaign identical on/off" `Slow test_inject_on_off;
    Alcotest.test_case "page-straddling insn: negative-block fallback" `Quick test_page_straddle;
    Alcotest.test_case "trap flag: one attempt, #DB pending" `Quick test_trap_flag_single_step;
    Alcotest.test_case "self-modifying store invalidates" `Quick test_smc_invalidation;
    Alcotest.test_case "note_hits equals repeated finds" `Quick test_note_hits_parity;
    Alcotest.test_case "snapshot restore drops the cache" `Quick test_restore_drops_cache;
  ]
