(* Cache timing model and its self-modifying-code coherency behaviour. *)

let test_cache_basics () =
  let c = Hw.Cache.create ~name:"t" ~lines:4 () in
  Alcotest.(check bool) "cold miss" false (Hw.Cache.access c 0x1000);
  Alcotest.(check bool) "hit" true (Hw.Cache.access c 0x1000);
  Alcotest.(check bool) "same line hit" true (Hw.Cache.access c 0x103F);
  Alcotest.(check bool) "next line misses" false (Hw.Cache.access c 0x1040);
  (* direct-mapped conflict: 4 lines of 64B -> stride 256 aliases *)
  Alcotest.(check bool) "conflict evicts" false (Hw.Cache.access c 0x1100);
  Alcotest.(check bool) "original now misses" false (Hw.Cache.access c 0x1000)

let test_cache_invalidate () =
  let c = Hw.Cache.create ~name:"t" ~lines:8 () in
  ignore (Hw.Cache.access c 0x2000);
  Alcotest.(check bool) "invalidate cached" true (Hw.Cache.invalidate c 0x2000);
  Alcotest.(check bool) "invalidate uncached" false (Hw.Cache.invalidate c 0x2000);
  Alcotest.(check bool) "miss after invalidate" false (Hw.Cache.access c 0x2000);
  Hw.Cache.flush c;
  Alcotest.(check bool) "miss after flush" false (Hw.Cache.access c 0x2000)

let test_smc_penalty_through_mmu () =
  let phys = Hw.Phys.create ~frames:8 () in
  let cost = Hw.Cost.create () in
  let mmu = Hw.Mmu.create ~phys ~cost () in
  Hw.Mmu.enable_caches mmu;
  let table = Hashtbl.create 4 in
  Hashtbl.replace table 0 (Hw.Tlb.word ~frame:1 ~writable:true ~user:true ~nx:false);
  Hw.Mmu.load_cr3 mmu (fun vpn -> Option.value (Hashtbl.find_opt table vpn) ~default:(-1));
  (* execute-side access caches the line *)
  ignore (Hw.Mmu.Fast.fetch8 mmu ~from_user:true 0x100);
  let before = cost.cycles in
  (* a store to the same line must pay the coherency penalty *)
  Hw.Mmu.Fast.write8 mmu ~from_user:true 0x100 0x90;
  Alcotest.(check bool) "smc penalty charged" true
    (cost.cycles - before >= cost.params.smc_penalty);
  let before = cost.cycles in
  (* a store to a line never fetched pays only the dcache cost *)
  Hw.Mmu.Fast.write8 mmu ~from_user:true 0xF00 0x90;
  Alcotest.(check bool) "plain store cheap" true
    (cost.cycles - before < cost.params.smc_penalty)

let test_kernel_code_write_always_pays () =
  let phys = Hw.Phys.create ~frames:8 () in
  let cost = Hw.Cost.create () in
  let mmu = Hw.Mmu.create ~phys ~cost () in
  Hw.Mmu.enable_caches mmu;
  let before = cost.cycles in
  Hw.Mmu.kernel_code_write mmu ~frame:1 ~off:4095 0x32;
  Alcotest.(check bool) "conservative snoop penalty" true
    (cost.cycles - before >= cost.params.smc_penalty);
  Alcotest.(check int) "byte landed" 0x32 (Hw.Phys.read8 phys ~frame:1 ~off:4095)

let test_caches_off_by_default () =
  let phys = Hw.Phys.create ~frames:4 () in
  let cost = Hw.Cost.create () in
  let mmu = Hw.Mmu.create ~phys ~cost () in
  Alcotest.(check bool) "no icache" true (Hw.Mmu.icache mmu = None);
  Alcotest.(check bool) "no dcache" true (Hw.Mmu.dcache mmu = None)

let suite =
  [
    Alcotest.test_case "direct-mapped access/conflict" `Quick test_cache_basics;
    Alcotest.test_case "invalidate and flush" `Quick test_cache_invalidate;
    Alcotest.test_case "smc coherency penalty via mmu" `Quick test_smc_penalty_through_mmu;
    Alcotest.test_case "kernel code write pays snoop" `Quick test_kernel_code_write_always_pays;
    Alcotest.test_case "caches are opt-in" `Quick test_caches_off_by_default;
  ]
