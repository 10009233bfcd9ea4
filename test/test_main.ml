let () =
  Alcotest.run "split_memory"
    [
      ("units", Test_units.suite);
      ("isa", Test_isa.suite);
      ("hw", Test_hw.suite);
      ("kernel", Test_kernel.suite);
      ("split", Test_split.suite);
      ("soft-tlb", Test_soft_tlb.suite);
      ("dual-cr3", Test_dual_cr3.suite);
      ("recovery", Test_recovery.suite);
      ("limitations", Test_limitations.suite);
      ("smoke", Test_smoke.suite);
      ("attack", Test_attack.suite);
      ("realworld", Test_realworld.suite);
      ("bypass", Test_bypass.suite);
      ("workload", Test_workload.suite);
      ("fleet", Test_fleet.suite);
      ("properties", Test_props.suite);
      ("wake-equiv", Test_equiv.wake_suite);
      ("scale", Test_scale.suite);
      ("cache", Test_cache.suite);
      ("stress", Test_stress.suite);
      ("edges", Test_edges.suite);
      ("hw-pagetable", Test_hw_pagetable.suite);
      ("dynlib", Test_dynlib.suite);
      ("obs", Test_obs.suite);
      ("snap", Test_snap.suite);
      ("trap", Test_trap.suite);
      ("inject", Test_inject.suite);
      ("reuse", Test_reuse.suite);
      ("prof", Test_prof.suite);
      ("bbcache", Test_bbcache.suite);
      ("serve", Test_serve.suite);
      ("equiv", Test_equiv.suite);
    ]
