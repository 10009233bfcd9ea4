(* Regenerates every table and figure of the paper's evaluation (§6).
   Usage: main.exe [-j N] [--json FILE] [--scale-gate RATIO]
            [table1|table2|fig5|fig6|fig7|fig8|fig9|ablation|micro|scale]...
   With no experiment argument, runs the full reproduction suite
   (everything except the bechamel microbenchmarks).

   Every grid-shaped experiment fans its machines out over a Fleet worker
   pool of [-j N] domains (default: the machine's recommended domain
   count). Results are consumed in submission order, so the rendered
   tables and figures are byte-identical for every N. *)

let out fmt = Fmt.pr (fmt ^^ "@.")

(* Worker-domain count, set by -j/--jobs before dispatch. *)
let jobs = ref (Fleet.default_jobs ())

(* --- Table 1: the Wilander-style benchmark ------------------------------ *)

let table1 () =
  let mark = function
    | Error (e : Fleet.error) -> "error: " ^ e.reason
    | Ok outcome ->
      if Attack.Runner.is_foiled outcome then "foiled"
      else if Attack.Runner.is_attack_success outcome then "SHELL!"
      else "crash"
  in
  let cells =
    List.concat_map
      (fun t -> List.map (fun l -> (t, l)) Attack.Wilander.locations)
      Attack.Wilander.techniques
  in
  (* One job per grid cell; each runs the cell under split memory and the
     unprotected control on its own pair of machines. *)
  let outcomes =
    Fleet.map ~jobs:!jobs
      ~label:(fun (t, l) ->
        Attack.Wilander.technique_name t ^ "/" ^ Attack.Wilander.location_name l)
      (fun (t, l) ->
        ( Attack.Wilander.run ~defense:Defense.split_standalone t l,
          Attack.Wilander.run ~defense:Defense.unprotected t l ))
      cells
  in
  let n_loc = List.length Attack.Wilander.locations in
  let cell ti li = List.nth outcomes ((ti * n_loc) + li) in
  let rows =
    List.mapi
      (fun ti t ->
        Attack.Wilander.technique_name t
        :: List.mapi (fun li _ -> mark (Result.map fst (cell ti li)))
             Attack.Wilander.locations)
      Attack.Wilander.techniques
  in
  out "%s"
    (Report.table
       ~title:
         "Table 1: benchmark attacks under split memory, by injected-code location\n\
          (paper: 20 live cases + 4 N/A, all foiled; this reconstruction exercises\n\
          9 techniques x 4 segments = 36 live cases, incl. the pointer-redirect class)"
       ~header:("hijack technique" :: List.map Attack.Wilander.location_name Attack.Wilander.locations)
       rows);
  let unprot_all =
    List.for_all
      (function
        | Ok (_, unprot) -> Attack.Runner.is_attack_success unprot
        | Error _ -> false)
      outcomes
  in
  let combos = List.length cells in
  out "control: all %d combinations spawn a shell on the unprotected kernel: %b@." combos
    unprot_all

(* --- Table 2: the five real-world attacks ------------------------------- *)

let table2 () =
  let runs =
    Fleet.map ~jobs:!jobs
      ~label:(fun id -> (Attack.Realworld.info id).package)
      (fun id ->
        ( Attack.Realworld.run ~defense:Defense.unprotected id,
          Attack.Realworld.run ~defense:Defense.split_standalone id ))
      Attack.Realworld.all
  in
  let rows =
    List.map2
      (fun id run ->
        let info = Attack.Realworld.info id in
        let unprot, split =
          match run with
          | Ok (u, s) -> (Attack.Runner.outcome_name u, Attack.Runner.outcome_name s)
          | Error (e : Fleet.error) -> ("error: " ^ e.reason, "error: " ^ e.reason)
        in
        [ info.package; info.version; info.vuln; unprot; split ])
      Attack.Realworld.all runs
  in
  out "%s"
    (Report.table
       ~title:
         "Table 2: real-world vulnerabilities (paper: all five exploits succeed\n\
          unpatched and are foiled by split memory)"
       ~header:[ "package"; "version"; "vulnerability"; "unprotected"; "split memory" ]
       rows)

(* --- Fig. 5: response modes against the WU-FTPD exploit ----------------- *)

(* Interactive exploit sessions (driver feeds stdin between runs) stay
   sequential: their value is the annotated kernel log, not throughput. *)

let show_log title (k : Kernel.Os.t) =
  out "--- %s ---" title;
  List.iter
    (fun e -> out "  %s" (Fmt.str "%a" Kernel.Event_log.pp_event e))
    (Kernel.Event_log.to_list (Kernel.Os.log k));
  out ""

let fig5 () =
  out "Fig. 5: response modes against the WU-FTPD exploit@.";
  let break = Defense.split_with ~response:Split_memory.Response.Break () in
  let o, s = Attack.Realworld.run_wuftpd ~defense:break () in
  out "(a) break mode: %s" (Attack.Runner.outcome_name o);
  show_log "kernel log" s.k;
  let observe =
    Defense.split_with ~response:(Split_memory.Response.Observe { sebek = true }) ()
  in
  let o, s = Attack.Realworld.run_wuftpd ~defense:observe ~commands:[ "id"; "uname -a"; "q" ] () in
  out "(b)+(d) observe mode with Sebek logging: %s" (Attack.Runner.outcome_name o);
  show_log "kernel log (note the traced attacker keystrokes)" s.k;
  let forensics =
    Defense.split_with ~response:(Split_memory.Response.Forensics { payload = None }) ()
  in
  let o, s = Attack.Realworld.run_wuftpd ~defense:forensics () in
  out "(c) forensics mode: %s" (Attack.Runner.outcome_name o);
  show_log "kernel log (first 20 bytes of shellcode — note the 0x90 NOP sled)" s.k;
  let forensic_exit =
    Defense.split_with
      ~response:(Split_memory.Response.Forensics { payload = Some Attack.Shellcode.exit0 })
      ()
  in
  let o, s = Attack.Realworld.run_wuftpd ~defense:forensic_exit () in
  out "(c') forensics with injected exit(0) shellcode: %s" (Attack.Runner.outcome_name o);
  show_log "kernel log" s.k

(* --- Figures 6-9 --------------------------------------------------------- *)

let with_reference points refs =
  List.map2
    (fun (p : Workload.Figures.point) r ->
      (Fmt.str "%s (paper %.2f)" p.x r, p.value))
    points refs

let fig6 () =
  let points = Workload.Figures.fig6 ~jobs:!jobs () in
  out "%s"
    (Report.bars ~title:"Fig. 6: normalized performance, stand-alone split memory"
       (with_reference points [ 0.89; 0.87; 0.97; 0.82 ]))

let fig7 () =
  let points = Workload.Figures.fig7 ~jobs:!jobs () in
  out "%s"
    (Report.bars ~title:"Fig. 7: stress tests (context-switch heavy)"
       (with_reference points [ 0.45; 0.45 ]))

let fig8 () =
  let points = Workload.Figures.fig8 ~jobs:!jobs () in
  out "%s"
    (Report.bars ~title:"Fig. 8: Apache throughput vs served page size (split memory)"
       (List.map (fun (p : Workload.Figures.point) -> (p.x, p.value)) points))

let fig9 () =
  let points = Workload.Figures.fig9 ~jobs:!jobs () in
  out "%s"
    (Report.bars
       ~title:
         "Fig. 9: pipe-based ctxsw with a fraction of pages split (rest via NX)\n\
          (paper: ~80%% of full speed at 10%% split)"
       (List.map (fun (p : Workload.Figures.point) -> (p.x, p.value)) points))

(* --- Ablations ----------------------------------------------------------- *)

let ablation () =
  let outcome_cell = function
    | Ok o -> Attack.Runner.outcome_name o
    | Error (e : Fleet.error) -> "error: " ^ e.reason
  in
  out "Ablation A: DEP/NX bypass via mmap-RWX gadget (paper S2, ref [4])";
  let nx_rows =
    [ ("unprotected", Defense.unprotected);
      ("nx bit", Defense.nx);
      ("split memory", Defense.split_standalone) ]
  in
  let nx_runs =
    Fleet.map ~jobs:!jobs ~label:fst
      (fun (_, d) -> Attack.Bypass.run_nx_bypass ~defense:d ())
      nx_rows
  in
  out "%s"
    (Report.table ~title:"" ~header:[ "defense"; "outcome" ]
       (List.map2 (fun (n, _) r -> [ n; outcome_cell r ]) nx_rows nx_runs));
  out "Ablation B: mixed code+data page (paper Fig. 1b, JavaVM/JIT case)";
  let mixed_rows =
    [ ("unprotected", Defense.unprotected);
      ("nx bit", Defense.nx);
      ("split(mixed-only)+nx", Defense.split_mixed_plus_nx);
      ("split stand-alone", Defense.split_standalone) ]
  in
  let mixed_runs =
    Fleet.map ~jobs:!jobs ~label:fst
      (fun (_, d) -> Attack.Bypass.run_mixed_page ~defense:d ())
      mixed_rows
  in
  out "%s"
    (Report.table ~title:"" ~header:[ "defense"; "outcome" ]
       (List.map2 (fun (n, _) r -> [ n; outcome_cell r ]) mixed_rows mixed_runs));
  let unprot, eager, demand = Workload.Figures.memory_overhead ~jobs:!jobs () in
  out
    "Ablation C: memory overhead (peak frames) — unprotected %d, eager split %d,\n\
     demand split %d (paper S5.1: prototype doubles memory; demand paging avoids it)@."
    unprot eager demand;
  let single_step, ret_gadget = Workload.Figures.itlb_method_ablation ~jobs:!jobs () in
  out
    "Ablation D: ITLB load method, pipe-ctxsw cycles — single-step %d, ret-gadget %d\n\
     (paper S4.2.4: the ret-instruction variant was measurably slower)@."
    single_step ret_gadget;
  out "Ablation F: implementation mechanisms on the ctxsw stress test";
  out "%s"
    (Report.bars ~title:"(each vs the stock kernel on its own hardware)"
       (Workload.Figures.mechanisms_ablation ~jobs:!jobs ()));
  out "Ablation G: TLB capacity sweep (ctxsw stress, stand-alone split)";
  out "%s"
    (Report.bars ~title:"(overhead is flush-driven: capacity barely matters)"
       (List.map
          (fun (cap, v) -> (Fmt.str "%3d entries" cap, v))
          (Workload.Figures.tlb_capacity_sweep ~jobs:!jobs ())));
  out
    "Ablation H: combined deployment (split mixed-only + NX) on the Fig. 6\n\
     workloads — the paper's S4.2.1 claim of very low overhead:";
  out "%s"
    (Report.bars ~title:""
       (List.map
          (fun (p : Workload.Figures.point) -> (p.x, p.value))
          (Workload.Figures.fig6 ~jobs:!jobs ~defense:Defense.split_mixed_plus_nx ())));
  out "Ablation E: samba brute force under randomization";
  (* The brute-force session is a feedback loop (each attempt adapts to the
     previous detection), so it stays sequential. *)
  let r = Attack.Realworld.run_samba ~defense:Defense.unprotected () in
  out "  unprotected: %s after %d attempts"
    (Attack.Runner.outcome_name r.outcome)
    r.attempts;
  let r = Attack.Realworld.run_samba ~defense:Defense.split_standalone ~max_attempts:8 () in
  out "  split memory: %s after %d attempts (%d detections)@."
    (Attack.Runner.outcome_name r.outcome)
    r.attempts r.detections


(* --- Limitations (paper S7) ---------------------------------------------- *)

let limitations () =
  out "Limitations (paper S7): what split memory does NOT stop";
  let defenses =
    [
      ("unprotected", Defense.unprotected);
      ("nx bit", Defense.nx);
      ("split memory", Defense.split_standalone);
    ]
  in
  let ncd =
    List.map
      (fun (n, d) ->
        [ "non-control-data (flag flip)"; n;
          (if Attack.Limitations.run_non_control_data ~defense:d () then "secret leaked"
           else "denied") ])
      defenses
  in
  let r2c =
    List.map
      (fun (n, d) ->
        [ "return into existing code"; n;
          Attack.Runner.outcome_name (Attack.Limitations.run_ret_into_code ~defense:d ()) ])
      defenses
  in
  let smc =
    List.map
      (fun (n, d) ->
        [ "self-modifying code (benign)"; n;
          (match Attack.Limitations.run_self_modifying ~defense:d () with
          | Attack.Runner.Completed 55 -> "works"
          | o -> "broken: " ^ Attack.Runner.outcome_name o) ])
      defenses
  in
  out "%s"
    (Report.table ~title:"" ~header:[ "case"; "defense"; "result" ] (ncd @ r2c @ smc));
  out
    "Split memory stops the execution of injected code and nothing more: data-only\n\
     attacks and code-reuse attacks require complements (ASLR, CFI), and programs\n\
     that legitimately execute what they write cannot run split (S7).@."

(* --- defense x attack matrix (lib/reuse) --------------------------------- *)

(* The §7 cross-product made a table: injection representatives plus the
   code-reuse attacks against every defense configuration. Every cell is
   an independent machine fanned over the fleet; submission-order results
   keep the rendered bytes identical at any -j. Exits non-zero on any
   cell the threat model does not predict — the CI gate that pins
   "reuse escapes split alone" and "CFI stops it, alone or composed". *)
let matrix_exp () =
  out "Defense x attack matrix (injection vs code reuse, paper §7):";
  let cells = Reuse.Campaign.matrix ~jobs:!jobs () in
  out "%s" (Fmt.str "%a" Reuse.Campaign.render cells);
  if not (Reuse.Campaign.check cells) then begin
    Fmt.epr "matrix deviates from the threat model@.";
    exit 1
  end

(* --- Bechamel microbenchmarks (wall-clock of the simulator itself) ------ *)

let micro () =
  let open Bechamel in
  let quick name f = Test.make ~name (Staged.stage f) in
  let tests =
    [
      quick "table1-cell: grid attack under split" (fun () ->
          ignore
            (Attack.Wilander.run ~defense:Defense.split_standalone Attack.Wilander.Ret_addr
               Attack.Wilander.Stack));
      quick "table2-row: apache attack under split" (fun () ->
          ignore
            (Attack.Realworld.run ~defense:Defense.split_standalone Attack.Realworld.Apache_ssl));
      quick "fig5: wuftpd observe mode" (fun () ->
          ignore
            (Attack.Realworld.run_wuftpd
               ~defense:
                 (Defense.split_with
                    ~response:(Split_memory.Response.Observe { sebek = false })
                    ())
               ()));
      quick "fig6-point: nbench under split" (fun () ->
          ignore
            (Workload.Harness.run
               (Workload.Harness.single ~defense:Defense.split_standalone
                  (Workload.Guests.nbench ~iters:5 ()))));
      quick "fig7-point: pipe ctxsw under split" (fun () ->
          ignore (Workload.Figures.run_ctxsw ~defense:Defense.split_standalone ~iters:20 ()));
      quick "fig8-point: apache 4KB under split" (fun () ->
          ignore
            (Workload.Figures.run_apache ~defense:Defense.split_standalone ~size:4096
               ~requests:3 ()));
      quick "fig9-point: ctxsw at 50% split" (fun () ->
          ignore
            (Workload.Figures.run_ctxsw ~defense:(Defense.split_fraction 50) ~iters:20 ()));
    ]
  in
  let benchmark test =
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.25) ~stabilize:false () in
    Benchmark.all cfg instances test
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  out "Bechamel microbenchmarks (simulator wall-clock per experiment unit):";
  List.iter
    (fun test ->
      let results = benchmark (Test.make_grouped ~name:"experiments" [ test ]) in
      Hashtbl.iter
        (fun _clock per_test ->
          Hashtbl.iter
            (fun name raw ->
              let est = Analyze.one ols Toolkit.Instance.monotonic_clock raw in
              match Analyze.OLS.estimates est with
              | Some [ ns ] -> out "  %-50s %12.0f ns/run" name ns
              | Some _ | None -> out "  %-50s (no estimate)" name)
            per_test)
        (let tbl = Hashtbl.create 1 in
         Hashtbl.add tbl "clock" results;
         tbl))
    tests

(* --- snapshot/restore throughput (lib/snap) ------------------------------ *)

let snap_exp () =
  let scenario name =
    match Snap.Scenario.find name with Some s -> s | None -> assert false
  in
  let s = scenario "benign" in
  let os = s.start () in
  ignore (Kernel.Os.run ~fuel:1500 os : Kernel.Os.stop_reason);
  let snap = Snap.Snapshot.checkpoint os in
  let blob = Snap.Snapshot.encode snap in
  let mib = float_of_int (String.length blob) /. 1048576. in
  let time_n n f =
    let t0 = Sys.time () in
    for _ = 1 to n do
      f ()
    done;
    (Sys.time () -. t0) /. float_of_int n
  in
  let n = 200 in
  let t_ckpt = time_n n (fun () -> ignore (Snap.Snapshot.checkpoint os : Snap.Snapshot.t)) in
  let t_enc = time_n n (fun () -> ignore (Snap.Snapshot.encode snap : string)) in
  let t_dec = time_n n (fun () -> ignore (Snap.Snapshot.decode blob : Snap.Snapshot.t)) in
  let t_rest = time_n n (fun () -> Snap.Snapshot.restore os snap) in
  out
    "Snapshot/restore microbenchmarks (benign scenario at cycle %d; %d frames\n\
     written, %d all-zero skipped; %.2f MiB encoded; %d iterations):"
    (Snap.Snapshot.cycle snap)
    (Snap.Snapshot.frames_written snap)
    (Snap.Snapshot.frames_sparse_skipped snap)
    mib n;
  out "  checkpoint %8.3f ms/op    restore %8.3f ms/op" (t_ckpt *. 1e3) (t_rest *. 1e3);
  out "  encode     %8.1f MiB/s    decode  %8.1f MiB/s" (mib /. t_enc) (mib /. t_dec);
  (* Warm start: resuming from the checkpoint skips the instructions behind
     it but pays a full physical-memory rebuild, so the wall-clock win only
     materializes on long runs; the invariant that matters is that both
     paths end on the identical final cycle count. *)
  let m = 20 in
  let cold_cycles = ref 0 and warm_cycles = ref 0 in
  let t_cold =
    time_n m (fun () ->
        let k = s.start () in
        ignore (Kernel.Os.run ~fuel:2_000_000 k : Kernel.Os.stop_reason);
        cold_cycles := (Kernel.Os.cost k).cycles)
  in
  let t_warm =
    time_n m (fun () ->
        let k = s.start () in
        Snap.Snapshot.restore k snap;
        ignore (Kernel.Os.run ~fuel:2_000_000 k : Kernel.Os.stop_reason);
        warm_cycles := (Kernel.Os.cost k).cycles)
  in
  out
    "  warm start: cold run %.3f ms vs restore+resume %.3f ms (%.2fx);\n\
     \  both end at cycle %d (warm %d) from checkpoint cycle %d"
    (t_cold *. 1e3) (t_warm *. 1e3)
    (t_cold /. t_warm)
    !cold_cycles !warm_cycles (Snap.Snapshot.cycle snap)

(* --- calibration detail (not part of the reproduction output) ----------- *)

let calib () =
  let show name (r : Workload.Harness.result) =
    out "%-28s %-22s cycles=%9d insns=%8d traps=%6d split=%6d ss=%5d ctxsw=%5d itlbm=%6d dtlbm=%6d"
      name r.defense r.cycles r.insns r.traps r.split_faults r.single_steps
      r.ctx_switches r.itlb_misses r.dtlb_misses
  in
  let both name f =
    show name (f Defense.unprotected);
    show name (f Defense.split_standalone)
  in
  both "apache-32K" (fun d -> Workload.Figures.run_apache ~defense:d ~size:32768 ~requests:25 ());
  both "apache-1K" (fun d -> Workload.Figures.run_apache ~defense:d ~size:1024 ~requests:25 ());
  both "gzip" (fun d -> Workload.Figures.run_gzip ~defense:d ~size:(48*1024) ());
  both "ctxsw" (fun d -> Workload.Figures.run_ctxsw ~defense:d ~iters:250 ());
  List.iter
    (fun (n, v) -> out "  nbench %-22s %.3f" n v)
    (Workload.Figures.nbench_results ~jobs:!jobs ~defense:Defense.split_standalone ());
  List.iter
    (fun (n, v) -> out "  unixbench %-20s %.3f" n v)
    (Workload.Figures.unixbench_pieces ~jobs:!jobs ~defense:Defense.split_standalone ())

(* --- allocation gate (minor words per simulated instruction) ------------- *)

(* The MMU fast path keeps the CPU step loop nearly allocation-free; these
   numbers watch it. Measured around the run only (machine construction
   excluded), on one domain, so [Gc.minor_words] sees exactly the run's
   allocations — deterministic for a given build. *)

let quickstart_image () =
  let open Isa.Asm in
  Kernel.Image.build ~name:"greeter"
    ~data:(fun ~lbl:_ -> [ L "msg"; Bytes "hello from the guest!\n" ])
    ~code:(fun ~lbl ->
      (L "main" :: Guest.sys_write_imm ~buf:(lbl "msg") ~len:22 ()) @ Guest.sys_exit 0)
    ~entry:"main" ()

let alloc_per_insn (s : Workload.Harness.spec) =
  let k = Workload.Harness.build s in
  let w0 = Gc.minor_words () in
  ignore (Kernel.Os.run ~fuel:s.fuel k : Kernel.Os.stop_reason);
  let w1 = Gc.minor_words () in
  let insns = (Kernel.Os.cost k).insns in
  (w1 -. w0) /. float_of_int insns

(* "quickstart" is the README's greeter guest under stand-alone split
   memory; "fig7_ctxsw" is the TLB-flush-heavy pipe context-switch stress
   test, where per-step translation allocations dominate. *)
let alloc_numbers () =
  [
    ( "quickstart",
      alloc_per_insn
        (Workload.Harness.single ~defense:Defense.split_standalone (quickstart_image ())) );
    ( "fig7_ctxsw",
      alloc_per_insn
        (Workload.Figures.ctxsw_spec ~defense:Defense.split_standalone ~iters:250) );
  ]

let alloc () =
  out "Minor-heap allocation per simulated instruction (run only):";
  List.iter (fun (n, v) -> out "  %-12s %8.2f minor words/insn" n v) (alloc_numbers ())

(* Gate against a committed baseline ("<name> <value>" lines); fails the
   process when any number regresses more than 10%. *)
let alloc_gate baseline_file =
  let baseline =
    let ic = open_in baseline_file in
    let rec go acc =
      match input_line ic with
      | line -> (
        match String.split_on_char ' ' (String.trim line) with
        | [ name; v ] -> go ((name, float_of_string v) :: acc)
        | _ -> go acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []
  in
  let failures = ref 0 in
  List.iter
    (fun (name, got) ->
      match List.assoc_opt name baseline with
      | None ->
        out "alloc-gate: %-12s %8.2f words/insn (no baseline; add it)" name got;
        incr failures
      | Some base ->
        let limit = base *. 1.10 in
        if got > limit then begin
          out "alloc-gate: %-12s REGRESSED: %.2f words/insn vs baseline %.2f (+%.1f%%, limit +10%%)"
            name got base
            ((got /. base -. 1.) *. 100.);
          incr failures
        end
        else begin
          out "alloc-gate: %-12s ok: %.2f words/insn vs baseline %.2f (%+.1f%%)" name got
            base
            ((got /. base -. 1.) *. 100.);
          if got < base *. 0.90 then
            out "alloc-gate: %-12s improved >10%% — consider re-baselining" name
        end)
    (alloc_numbers ());
  if !failures > 0 then exit 1

(* --- decoded-block-cache throughput (lib/hw/bbcache) --------------------- *)

(* The block cache is a pure dispatch optimization — provably equivalent
   (the test suite diffs event logs and counters on vs off) — so the only
   number that matters here is wall-clock. Workloads are the same two the
   allocation gate watches: the README quickstart and the TLB-flush-heavy
   fig7 context-switch stress. *)

let bbcache_specs () =
  [
    ( "quickstart",
      Workload.Harness.single ~defense:Defense.split_standalone (quickstart_image ()) );
    ("fig7_ctxsw", Workload.Figures.ctxsw_spec ~defense:Defense.split_standalone ~iters:250);
  ]

(* Run one spec with the cache on or off (off = the freshly built machine's
   cache is removed, leaving exact dispatch), returning the machine (its
   cache stats are read afterwards) and the run's wall-clock in
   microseconds — machine construction excluded, like the alloc gate. *)
let timed_run ~bbcache (s : Workload.Harness.spec) =
  let k = Workload.Harness.build s in
  if not bbcache then (Kernel.Os.env k).Hw.Exec_env.cache <- None;
  let t0 = Unix.gettimeofday () in
  ignore (Kernel.Os.run ~fuel:s.fuel k : Kernel.Os.stop_reason);
  (k, int_of_float ((Unix.gettimeofday () -. t0) *. 1e6))

(* Best-of-N wall-clock: the minimum is the run least disturbed by the
   host, the standard discipline for gating on timing. *)
let best_us ~bbcache ?(n = 3) s =
  let rec go best k i =
    if i >= n then (k, best)
    else
      let k', us = timed_run ~bbcache s in
      if us < best then go us k' (i + 1) else go best k (i + 1)
  in
  let k0, us0 = timed_run ~bbcache s in
  go us0 k0 1

let bbcache_measure s =
  let k_on, us_on = best_us ~bbcache:true s in
  let _, us_off = best_us ~bbcache:false s in
  (* every machine installs a cache *)
  let c = Option.get (Kernel.Os.bbcache k_on) in
  (us_on, us_off, Hw.Bbcache.stats c, Hw.Bbcache.insns_per_block c)

let bbcache_exp () =
  out "Decoded basic-block cache: wall-clock with the cache on vs off";
  out "  (identical simulations — same event logs, cycle counts, outcomes)";
  List.iter
    (fun (name, spec) ->
      let us_on, us_off, (st : Hw.Bbcache.stats), ipb = bbcache_measure spec in
      out "  %-12s on %8d us   off %8d us   speedup %.2fx" name us_on us_off
        (float_of_int us_off /. float_of_int us_on);
      out "  %-12s blocks %d  insns/block %.1f  hits %d  misses %d  invalidations %d" ""
        st.blocks_built ipb st.hits st.misses st.invalidations)
    (bbcache_specs ())

(* Gate against a committed floor ("<name> <min_speedup>" lines): fails the
   process when the cache-on/cache-off wall-clock ratio of any listed
   workload drops below its floor. Self-relative, so the gate is
   machine-independent — a slow CI runner slows both sides. *)
let throughput_gate baseline_file =
  let baseline =
    let ic = open_in baseline_file in
    let rec go acc =
      match input_line ic with
      | line -> (
        match String.split_on_char ' ' (String.trim line) with
        | [ name; v ] -> go ((name, float_of_string v) :: acc)
        | _ -> go acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []
  in
  let failures = ref 0 in
  List.iter
    (fun (name, spec) ->
      match List.assoc_opt name baseline with
      | None -> ()
      | Some floor ->
        let us_on, us_off, _, _ = bbcache_measure spec in
        let speedup = float_of_int us_off /. float_of_int us_on in
        if speedup < floor then begin
          out "throughput-gate: %-12s REGRESSED: %.2fx on-vs-off speedup (floor %.2fx)" name
            speedup floor;
          incr failures
        end
        else out "throughput-gate: %-12s ok: %.2fx on-vs-off speedup (floor %.2fx)" name speedup floor)
    (bbcache_specs ());
  if !failures > 0 then exit 1

(* --- scale-out experiments (10k-process machines) ------------------------ *)

(* One image, built once: spawn verification/digest memoization and the
   loader COW registry are exactly what the experiment measures. *)
let scale_image = lazy (Workload.Guests.scale_unit ~rounds:2 ())

(* quantum 32 (< the ~150-insn guest) so the guests interleave and are
   all resident at once — peak frames then shows the COW sharing instead
   of one guest's working set at a time. *)
let scale_spec ?(share = true) n =
  let module H = Workload.Harness in
  let img = Lazy.force scale_image in
  H.spec
    ~label:(Fmt.str "scale-%d%s" n (if share then "" else "-noshare"))
    ~frames:32768 ~fuel:200_000_000 ~quantum:32 ~share_images:share
    ~defense:Defense.split_mixed_plus_nx
    (List.init n (fun _ -> H.guest img))

let scale_grid = [ (100, true); (500, true); (500, false); (2000, true) ]

let scale_results () =
  let module H = Workload.Harness in
  List.combine scale_grid
    (H.run_fleet_exn ~jobs:!jobs
       (List.map (fun (n, share) -> scale_spec ~share n) scale_grid))

(* Deterministic counters only — the CI scale smoke diffs this output
   between -j values, so no wall-clock lines here. *)
let scale_exp () =
  let module H = Workload.Harness in
  out "Scale-out: N identical COW-shared guests under split memory + NX";
  out "  (deterministic counters — byte-identical for every -j)";
  let results = scale_results () in
  List.iter
    (fun (_, (r : H.result)) ->
      out "  %-18s cycles %10d  insns %8d  ctxsw %6d  peak frames %6d" r.label
        r.cycles r.insns r.ctx_switches r.peak_frames)
    results;
  match (List.assoc_opt (500, true) results, List.assoc_opt (500, false) results) with
  | Some shared, Some noshare ->
    out "  shared-image COW at N=500: peak frames %d vs %d unshared (%.1fx less memory)"
      shared.peak_frames noshare.peak_frames
      (float_of_int noshare.peak_frames /. float_of_int shared.peak_frames)
  | _ -> ()

(* Per-process wall-clock must stay flat as the machine grows: O(1)
   scheduling, indexed wakeups, the bitmap allocator and memoized spawns
   keep the 10k-process per-process cost within [max_ratio]x of the
   100-process baseline. Self-relative, so the gate is machine-independent. *)
let scale_gate_measure () =
  let _, us100 = best_us ~bbcache:true (scale_spec 100) in
  let _, us10k = best_us ~bbcache:true (scale_spec 10_000) in
  let per100 = float_of_int us100 /. 100. in
  let per10k = float_of_int us10k /. 10_000. in
  (per100, per10k, per10k /. per100)

let scale_gate max_ratio =
  let per100, per10k, ratio = scale_gate_measure () in
  out "scale-gate: per-process wall  100 procs %.2f us   10000 procs %.2f us   ratio %.2fx (max %.2fx)"
    per100 per10k ratio max_ratio;
  if ratio > max_ratio then begin
    out "scale-gate: REGRESSED";
    exit 1
  end

(* --- traffic-at-scale serving benchmark (lib/serve) ---------------------- *)

(* The headline "requests/sec vs. defense" sweep: concurrency up to 32
   closed-loop Apache-shaped pairs per machine, knee = lowest concurrency
   within 97% of each defense's peak. Deterministic counters only, so the
   output is byte-identical for every -j. *)
let serve_exp () =
  out "Serving under load: knee analysis per protection mode";
  out "  (simulated throughput, deterministic — byte-identical for every -j)";
  let t = Serve.Sweep.run ~jobs:!jobs ~concurrencies:[ 1; 2; 4; 8; 16; 32 ] ~reps:3
      ~requests:16 ()
  in
  out "%s" (Serve.Sweep.render t)

(* The gate's fixed sweep: split memory alone, small but past its knee. *)
let serve_gate_sweep () =
  Serve.Sweep.run ~jobs:!jobs
    ~defenses:[ Defense.split_standalone ]
    ~concurrencies:[ 1; 2; 4; 8; 16 ] ~reps:2 ~requests:12 ()

(* Gate against a committed baseline ("<name> <value>" lines): the knee
   concurrency must match exactly and knee throughput must stay within
   [ratio] of the baseline, both ways — simulated req/Mcyc is
   deterministic, so drift in either direction means the cost model or
   the scheduler changed and the baseline must be re-examined. *)
let serve_gate baseline_file =
  let baseline =
    let ic = open_in baseline_file in
    let rec go acc =
      match input_line ic with
      | line -> (
        match String.split_on_char ' ' (String.trim line) with
        | [ name; v ] -> go ((name, float_of_string v) :: acc)
        | _ -> go acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []
  in
  let t = serve_gate_sweep () in
  match t.Serve.Sweep.curves with
  | [ cv ] ->
    let failures = ref 0 in
    (match List.assoc_opt "split_knee_concurrency" baseline with
    | Some base when int_of_float base <> cv.Serve.Sweep.knee_concurrency ->
      out "serve-gate: knee concurrency MOVED: %d vs baseline %d"
        cv.Serve.Sweep.knee_concurrency (int_of_float base);
      incr failures
    | Some base ->
      out "serve-gate: knee concurrency ok: %d (baseline %d)"
        cv.Serve.Sweep.knee_concurrency (int_of_float base)
    | None ->
      out "serve-gate: no split_knee_concurrency baseline; add it";
      incr failures);
    (match List.assoc_opt "split_knee_tput" baseline with
    | Some base ->
      let got = cv.Serve.Sweep.knee_throughput in
      let ratio = 0.10 in
      if got < base *. (1. -. ratio) || got > base *. (1. +. ratio) then begin
        out "serve-gate: knee throughput DRIFTED: %.2f req/Mcyc vs baseline %.2f (band ±%.0f%%)"
          got base (ratio *. 100.);
        incr failures
      end
      else
        out "serve-gate: knee throughput ok: %.2f req/Mcyc vs baseline %.2f" got base
    | None ->
      out "serve-gate: no split_knee_tput baseline; add it";
      incr failures);
    if !failures > 0 then exit 1
  | _ ->
    out "serve-gate: sweep produced no split-memory curve";
    exit 1

(* --- profiler experiments (lib/prof) ------------------------------------- *)

(* Profile-driven policy tables: the TLB capacity x eviction sweep and the
   hot split-page ranking, both fanned over the fleet with submission-order
   merging — the output is identical for every -j. *)
let profile_exp () =
  out "%s"
    (Prof.Experiments.render_tlb_sweep (Prof.Experiments.tlb_sweep ~jobs:!jobs ()));
  out "%s" (Prof.Experiments.hot_page_ranking ~jobs:!jobs ())

(* --- machine-readable export (--json FILE) ------------------------------- *)

(* Run the headline workloads under the stock and split kernels — fanned
   out over the fleet — with a live observability sink, and dump the
   per-run counters (with per-job wall-clock), the fleet's own stats and
   the merged metrics registry as one JSON document.

   Schema split-memory-bench/8: everything /7 had, plus the "serve"
   object — the traffic-at-scale sweep's per-defense throughput curves,
   knee concurrency/throughput and pooled latency percentiles at the
   knee.

   /7 added to /6 the "scale" object — the scale-out grid (N COW-shared
   guests: deterministic counters, peak frames shared vs unshared) and
   the per-process wall-clock ratio of a 10k-process machine against the
   100-process baseline.

   /6 added to /5 the "bbcache" object — per-workload wall-clock with the
   decoded-block cache on vs off, the speedup, and the cache's own
   statistics (hits, misses, invalidations, blocks, insns/block).

   /5 added to /4 (which stacked the "inject" object on /3's "jobs",
   per-benchmark "wall_us", "fleet" and "alloc") the "matrix" object:
   every defense x attack cell of the lib/reuse campaign (outcome,
   expected escape, verdict) and the
   whole-grid check. Earlier consumers keep working: existing fields are
   unchanged, additions are additive. *)
(* Current git revision, read straight from .git (no subprocess): HEAD is
   either a hash or a "ref: ..." pointer into refs/ or packed-refs. *)
let git_rev () =
  let first_line path =
    match open_in path with
    | exception Sys_error _ -> None
    | ic ->
      let line = try Some (input_line ic) with End_of_file -> None in
      close_in ic;
      line
  in
  let packed_ref r =
    match open_in ".git/packed-refs" with
    | exception Sys_error _ -> None
    | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line -> (
          match String.split_on_char ' ' (String.trim line) with
          | [ hash; name ] when name = r -> Some hash
          | _ -> scan ())
      in
      let found = scan () in
      close_in ic;
      found
  in
  match first_line ".git/HEAD" with
  | None -> "unknown"
  | Some head ->
    let head = String.trim head in
    if String.length head > 5 && String.sub head 0 5 = "ref: " then begin
      let r = String.trim (String.sub head 5 (String.length head - 5)) in
      match first_line (".git/" ^ r) with
      | Some rev -> String.trim rev
      | None -> ( match packed_ref r with Some rev -> rev | None -> "unknown")
    end
    else head

(* The trajectory file: every --json run also appends one compact record
   here (git rev + per-benchmark wall-clock), so performance over the
   repo's history accumulates as JSON-lines without any tooling. *)
let trajectory_file = "BENCH_split-memory-bench.json"

let append_trajectory ~bb_speedups ~scale_ratio ~serve_knees results (stats : Fleet.stats) =
  let module J = Obs.Json in
  let module H = Workload.Harness in
  let benchmarks =
    List.mapi
      (fun i r ->
        let label, defense =
          match r with
          | Ok (res : H.result) -> (res.label, res.defense)
          | Error (e : Fleet.error) -> (e.label, "error")
        in
        J.Obj
          [
            ("label", J.Str label);
            ("defense", J.Str defense);
            ("wall_us", J.Int stats.job_us.(i));
          ])
      results
  in
  let record =
    J.Obj
      [
        ("schema", J.Str "split-memory-bench-trajectory/1");
        ("rev", J.Str (git_rev ()));
        ("jobs", J.Int !jobs);
        ("bbcache", J.Bool true);
        (* on/off wall-clock ratio per gated workload, so the block-cache
           dividend is tracked across revisions alongside the raw numbers *)
        ("bbcache_speedup", J.Obj (List.map (fun (n, s) -> (n, J.Float s)) bb_speedups));
        (* 10k-vs-100 per-process wall ratio, so scheduler/loader scaling
           is tracked across revisions alongside the raw numbers *)
        ("scale_per_proc_ratio", J.Float scale_ratio);
        (* per-defense serving knee (concurrency, req/Mcyc), so the
           throughput-under-load curve is tracked across revisions *)
        ( "serve_knees",
          J.Obj
            (List.map
               (fun (name, (knee, tput)) ->
                 (name, J.Obj [ ("knee", J.Int knee); ("tput", J.Float tput) ]))
               serve_knees) );
        ("fleet_wall_us", J.Int stats.wall_us);
        ("benchmarks", J.List benchmarks);
      ]
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 trajectory_file in
  output_string oc (J.to_string record);
  output_char oc '\n';
  close_out oc;
  out "appended run record to %s" trajectory_file

let json_bench file =
  let module J = Obs.Json in
  let module F = Workload.Figures in
  let module H = Workload.Harness in
  let module G = Workload.Guests in
  let obs = Obs.create () in
  let specs =
    List.concat_map
      (fun defense ->
        [
          F.apache_spec ~defense ~size:32768 ~requests:25;
          F.apache_spec ~defense ~size:1024 ~requests:25;
          F.gzip_spec ~defense ~size:(48 * 1024);
          F.ctxsw_spec ~defense ~iters:250;
          H.single ~defense (G.nbench ~iters:60 ());
          H.single ~defense (G.syscall_bench ~iters:2500 ());
          H.single ~defense (G.pipe_throughput ~iters:800 ());
          H.single ~defense (G.spawn_bench ~iters:60 ());
          H.single ~defense (G.fscopy ~passes:3 ~size:(24 * 1024) ());
        ])
      [ Defense.unprotected; Defense.split_standalone ]
  in
  let results, stats = H.run_fleet_stats ~obs ~jobs:!jobs specs in
  let result_json wall_us = function
    | Ok (r : H.result) ->
      J.Obj
        [
          ("label", J.Str r.label);
          ("defense", J.Str r.defense);
          ("cycles", J.Int r.cycles);
          ("insns", J.Int r.insns);
          ("traps", J.Int r.traps);
          ("split_faults", J.Int r.split_faults);
          ("single_steps", J.Int r.single_steps);
          ("ctx_switches", J.Int r.ctx_switches);
          ("peak_frames", J.Int r.peak_frames);
          ("itlb_misses", J.Int r.itlb_misses);
          ("dtlb_misses", J.Int r.dtlb_misses);
          ("wall_us", J.Int wall_us);
        ]
    | Error (e : Fleet.error) ->
      J.Obj
        [ ("label", J.Str e.label); ("error", J.Str e.reason); ("wall_us", J.Int wall_us) ]
  in
  let runs = List.mapi (fun i r -> result_json stats.job_us.(i) r) results in
  let fleet_json =
    J.Obj
      [
        ("jobs", J.Int stats.jobs);
        ("failures", J.Int stats.failures);
        ("workers", J.Int stats.workers);
        ("wall_us", J.Int stats.wall_us);
        ("speedup", J.Float stats.speedup);
        ("job_us", J.List (Array.to_list (Array.map (fun us -> J.Int us) stats.job_us)));
      ]
  in
  let alloc_json =
    J.Obj
      (List.map
         (fun (n, v) -> (n ^ "_minor_words_per_insn", J.Float v))
         (alloc_numbers ()))
  in
  let inject_json =
    let seed = 7 in
    let verdicts = Inject.campaign ~obs ~jobs:!jobs (Inject.default_plans ~seed ()) in
    let detected, masked, escaped, clean = Inject.tally verdicts in
    J.Obj
      [
        ("seed", J.Int seed);
        ("plans", J.Int (List.length verdicts));
        ( "injected",
          J.Int (List.fold_left (fun a (v : Inject.verdict) -> a + v.v_injected) 0 verdicts)
        );
        ("detected", J.Int detected);
        ("masked", J.Int masked);
        ("escaped", J.Int escaped);
        ("clean", J.Int clean);
        ( "verdicts",
          J.List
            (List.map
               (fun (v : Inject.verdict) ->
                 J.Obj
                   [
                     ("plan", J.Str v.v_label);
                     ("scenario", J.Str v.v_scenario);
                     ("classes", J.Str v.v_classes);
                     ("outcome", J.Str (Inject.outcome_name v.v_outcome));
                     ("injected", J.Int v.v_injected);
                     ("detections", J.Int v.v_detections);
                     ("cycles_base", J.Int v.v_base_cycles);
                     ("cycles", J.Int v.v_cycles);
                   ])
               verdicts) );
      ]
  in
  let matrix_json =
    let cells = Reuse.Campaign.matrix ~jobs:!jobs () in
    J.Obj
      [
        ("check", J.Bool (Reuse.Campaign.check cells));
        ( "cells",
          J.List
            (List.map
               (fun (c : Reuse.Campaign.cell) ->
                 J.Obj
                   [
                     ("attack", J.Str c.attack);
                     ("defense", J.Str c.defense);
                     ( "outcome",
                       J.Str
                         (match c.result with
                         | Ok o -> Attack.Runner.outcome_name o
                         | Error e -> "error: " ^ e) );
                     ("expected_escape", J.Bool c.expected);
                     ("ok", J.Bool (Reuse.Campaign.cell_ok c));
                   ])
               cells) );
      ]
  in
  let bb_measures =
    List.map (fun (name, spec) -> (name, bbcache_measure spec)) (bbcache_specs ())
  in
  let scale_per100, scale_per10k, scale_ratio = scale_gate_measure () in
  let scale_json =
    J.Obj
      [
        ( "grid",
          J.List
            (List.map
               (fun (_, (r : H.result)) ->
                 J.Obj
                   [
                     ("label", J.Str r.label);
                     ("cycles", J.Int r.cycles);
                     ("insns", J.Int r.insns);
                     ("ctx_switches", J.Int r.ctx_switches);
                     ("peak_frames", J.Int r.peak_frames);
                   ])
               (scale_results ())) );
        ("per_proc_us_100", J.Float scale_per100);
        ("per_proc_us_10k", J.Float scale_per10k);
        ("per_proc_ratio", J.Float scale_ratio);
      ]
  in
  let bbcache_json =
    J.Obj
      (("enabled", J.Bool true)
      :: List.map
           (fun (name, (us_on, us_off, (st : Hw.Bbcache.stats), ipb)) ->
             ( name,
               J.Obj
                 [
                   ("wall_us_on", J.Int us_on);
                   ("wall_us_off", J.Int us_off);
                   ("speedup", J.Float (float_of_int us_off /. float_of_int us_on));
                   ("hits", J.Int st.hits);
                   ("misses", J.Int st.misses);
                   ("invalidations", J.Int st.invalidations);
                   ("blocks_built", J.Int st.blocks_built);
                   ("insns_per_block", J.Float ipb);
                 ] ))
           bb_measures)
  in
  let serve_sweep =
    Serve.Sweep.run ~jobs:!jobs ~concurrencies:[ 1; 2; 4; 8; 16 ] ~reps:2 ~requests:12 ()
  in
  let int_opt = function Some v -> J.Int v | None -> J.Null in
  let serve_json =
    J.Obj
      [
        ("model", J.Str (Serve.Loadgen.model_name serve_sweep.Serve.Sweep.model));
        ("requests_per_client", J.Int serve_sweep.Serve.Sweep.requests);
        ( "concurrencies",
          J.List (List.map (fun c -> J.Int c) serve_sweep.Serve.Sweep.concurrencies) );
        ( "curves",
          J.List
            (List.map
               (fun (cv : Serve.Sweep.curve) ->
                 J.Obj
                   [
                     ("defense", J.Str cv.name);
                     ("knee_concurrency", J.Int cv.knee_concurrency);
                     ("peak_tput", J.Float cv.peak);
                     ("knee_tput", J.Float cv.knee_throughput);
                     ("p50", int_opt cv.knee_lat.Serve.Latency.p50);
                     ("p95", int_opt cv.knee_lat.Serve.Latency.p95);
                     ("p99", int_opt cv.knee_lat.Serve.Latency.p99);
                     ("p999", int_opt cv.knee_lat.Serve.Latency.p999);
                     ( "points",
                       J.List
                         (List.map
                            (fun (c, (o : Serve.outcome)) ->
                              J.Obj
                                [ ("c", J.Int c); ("tput", J.Float o.Serve.throughput) ])
                            cv.points) );
                   ])
               serve_sweep.Serve.Sweep.curves) );
      ]
  in
  let doc =
    J.Obj
      [
        ("schema", J.Str "split-memory-bench/8");
        ("jobs", J.Int !jobs);
        ("benchmarks", J.List runs);
        ("fleet", fleet_json);
        ("alloc", alloc_json);
        ("inject", inject_json);
        ("matrix", matrix_json);
        ("bbcache", bbcache_json);
        ("scale", scale_json);
        ("serve", serve_json);
        ("metrics", Obs.Metrics.to_json (Obs.snapshot obs));
      ]
  in
  let oc = open_out file in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  out "wrote %s" file;
  append_trajectory
    ~bb_speedups:
      (List.map
         (fun (n, (us_on, us_off, _, _)) -> (n, float_of_int us_off /. float_of_int us_on))
         bb_measures)
    ~scale_ratio
    ~serve_knees:
      (List.map
         (fun (cv : Serve.Sweep.curve) ->
           (cv.name, (cv.knee_concurrency, cv.knee_throughput)))
         serve_sweep.Serve.Sweep.curves)
    results stats

(* --- driver -------------------------------------------------------------- *)

let all_reproduction () =
  table1 ();
  table2 ();
  fig5 ();
  fig6 ();
  fig7 ();
  fig8 ();
  fig9 ();
  ablation ();
  limitations ();
  matrix_exp ()

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* Strip -j/--jobs N (position-independent) before dispatching. *)
  let rec strip_jobs = function
    | [] -> []
    | ("-j" | "--jobs") :: n :: rest -> (
      match int_of_string_opt n with
      | Some v when v >= 1 ->
        jobs := v;
        strip_jobs rest
      | Some _ | None ->
        Fmt.epr "-j needs a positive integer, got %S@." n;
        exit 1)
    | [ ("-j" | "--jobs") ] ->
      Fmt.epr "-j needs a worker-count argument@.";
      exit 1
    | x :: rest -> x :: strip_jobs rest
  in
  let args = strip_jobs args in
  let experiments =
    [
      ("table1", table1);
      ("table2", table2);
      ("fig5", fig5);
      ("fig6", fig6);
      ("fig7", fig7);
      ("fig8", fig8);
      ("fig9", fig9);
      ("ablation", ablation);
      ("limitations", limitations);
      ("matrix", matrix_exp);
      ("micro", micro);
      ("bbcache", bbcache_exp);
      ("scale", scale_exp);
      ("serve", serve_exp);
      ("profile", profile_exp);
      ("snap", snap_exp);
      ("alloc", alloc);
      ("calib", calib);
      ("all", all_reproduction);
    ]
  in
  let dispatch name =
    match List.assoc_opt name experiments with
    | Some f -> f ()
    | None ->
      Fmt.epr "unknown experiment %S; valid experiments: %s@." name
        (String.concat " " (List.map fst experiments));
      exit 2
  in
  let rec run = function
    | [] -> ()
    | "--json" :: file :: rest ->
      json_bench file;
      run rest
    | [ "--json" ] ->
      Fmt.epr "--json needs a FILE argument@.";
      exit 1
    | "--alloc-gate" :: file :: rest ->
      alloc_gate file;
      run rest
    | [ "--alloc-gate" ] ->
      Fmt.epr "--alloc-gate needs a BASELINE argument@.";
      exit 1
    | "--throughput-gate" :: file :: rest ->
      throughput_gate file;
      run rest
    | [ "--throughput-gate" ] ->
      Fmt.epr "--throughput-gate needs a BASELINE argument@.";
      exit 1
    | "--serve-gate" :: file :: rest ->
      serve_gate file;
      run rest
    | [ "--serve-gate" ] ->
      Fmt.epr "--serve-gate needs a BASELINE argument@.";
      exit 1
    | "--scale-gate" :: r :: rest -> (
      match float_of_string_opt r with
      | Some max_ratio when max_ratio > 0. ->
        scale_gate max_ratio;
        run rest
      | Some _ | None ->
        Fmt.epr "--scale-gate needs a positive ratio, got %S@." r;
        exit 1)
    | [ "--scale-gate" ] ->
      Fmt.epr "--scale-gate needs a RATIO argument@.";
      exit 1
    | x :: rest ->
      dispatch x;
      run rest
  in
  match args with [] -> all_reproduction () | args -> run args
