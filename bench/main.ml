(* Regenerates every table and figure of the paper's evaluation (§6).
   Usage: main.exe [-j N] [--gate FILE]
            [table1|table2|fig5|fig6|fig7|fig8|fig9|ablation|limitations|matrix
             |scale|serve|profile|calib|all]...
   With no argument, runs the full reproduction suite ([all]).

   [--gate FILE] checks the metrics named in a gate table (bench/gates.txt)
   and exits 1 if any row fails, 2 if the table itself is bad. Host time of
   the simulator itself is measured by bench/perf, not here.

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
          (paper: ~80% of full speed at 10% split)"
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

(* Deterministic counters only: the output must be byte-identical for
   every -j, so no wall-clock lines here. *)
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

(* --- profiler experiments (lib/prof) ------------------------------------- *)

(* Profile-driven policy tables: the TLB capacity x eviction sweep and the
   hot split-page ranking, both fanned over the fleet with submission-order
   merging — the output is identical for every -j. *)
let profile_exp () =
  out "%s"
    (Prof.Experiments.render_tlb_sweep (Prof.Experiments.tlb_sweep ~jobs:!jobs ()));
  out "%s" (Prof.Experiments.hot_page_ranking ~jobs:!jobs ())


(* --- gates (--gate FILE) ------------------------------------------------- *)

(* Every check this binary enforces reads one table format: rows of
   "<name> <baseline> <tolerance>", blank lines and '#' comments ignored.
   The table holds only numbers; each metric's direction is declared below
   beside its measurement. Tolerance is relative: a [Lower] metric fails
   above baseline * (1 + tol), a [Higher] one below baseline * (1 - tol),
   and a [Both] one outside either bound. A table lists whole families
   (a name's first word: [alloc], [bbcache], [scale], [serve]): it needs a
   row for every metric of each family it names, so bench/gates.txt names
   them all, and dune runtest checks the deterministic families through a
   table filtered out of it (bench/dune). *)

type direction = Lower | Higher | Both

let quickstart_image () =
  let open Isa.Asm in
  Kernel.Image.build ~name:"greeter"
    ~data:(fun ~lbl:_ -> [ L "msg"; Bytes "hello from the guest!\n" ])
    ~code:(fun ~lbl ->
      (L "main" :: Guest.sys_write_imm ~buf:(lbl "msg") ~len:22 ()) @ Guest.sys_exit 0)
    ~entry:"main" ()

let ctxsw_spec () = Workload.Figures.ctxsw_spec ~defense:Defense.split_standalone ~iters:250

(* Minor-heap words per simulated instruction, measured around the run only
   (machine construction excluded) on one domain, so [Gc.minor_words] sees
   exactly the run's allocations. An unmeasured run goes first: the first
   run in a process may pay one-time initialization (~200 words,
   12% of the short quickstart run), and whether it does depends on what
   ran before, down to the set of linked libraries. *)
let alloc_per_insn (s : Workload.Harness.spec) =
  let run () =
    let k = Workload.Harness.build s in
    let w0 = Gc.minor_words () in
    ignore (Kernel.Os.run ~fuel:s.fuel k : Kernel.Os.stop_reason);
    (Gc.minor_words () -. w0) /. float_of_int (Kernel.Os.cost k).insns
  in
  ignore (run () : float);
  run ()

(* Wall-clock of one run, machine construction excluded, with the block
   cache on or off (off = the fresh machine's cache is removed, leaving
   exact dispatch). A full major collection first, so the clock does not
   also time the collection of what earlier runs and the build left. *)
let run_s ~bbcache (s : Workload.Harness.spec) =
  let k = Workload.Harness.build s in
  if not bbcache then (Kernel.Os.env k).Hw.Exec_env.cache <- None;
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  ignore (Kernel.Os.run ~fuel:s.fuel k : Kernel.Os.stop_reason);
  Unix.gettimeofday () -. t0

(* Best of 3: the run least disturbed by the host. *)
let best_s ~bbcache s =
  Float.min (run_s ~bbcache s) (Float.min (run_s ~bbcache s) (run_s ~bbcache s))

(* A fixed split-memory serving sweep, small but past its knee; both serve
   metrics read the one sweep. *)
let serve_knee =
  lazy
    (match
       (Serve.Sweep.run ~jobs:!jobs
          ~defenses:[ Defense.split_standalone ]
          ~concurrencies:[ 1; 2; 4; 8; 16 ] ~reps:2 ~requests:12 ())
         .Serve.Sweep.curves
     with
    | [ cv ] -> cv
    | _ -> failwith "serve sweep produced no split-memory curve")

let gate_metrics =
  [
    (* The MMU fast path keeps the CPU step loop nearly allocation-free:
       the README greeter and the TLB-flush-heavy fig 7 ctxsw stress. *)
    ( "alloc.quickstart",
      ( Lower,
        fun () ->
          alloc_per_insn
            (Workload.Harness.single ~defense:Defense.split_standalone (quickstart_image ()))
      ) );
    ("alloc.fig7_ctxsw", (Lower, fun () -> alloc_per_insn (ctxsw_spec ())));
    (* The kernel round trip: fig 7's Apache 1 KB pair, syscall- and
       Algorithm-1-bound. Its faults, TLB fills, pagetable walks, single
       steps, pipe syscalls and scheduler boundaries allocate nothing
       (DESIGN.md §9), so what is left is the run's one-time work (demand
       paging, block decodes), spread over the 25 requests' instructions. *)
    ( "alloc.fig7_apache1k",
      ( Lower,
        fun () ->
          alloc_per_insn
            (Workload.Figures.apache_spec ~defense:Defense.split_standalone ~size:1024
               ~requests:Workload.Figures.apache_requests) ) );
    (* Block cache on vs off: identical simulations, so the wall-clock
       ratio is its whole dividend. Self-relative, machine-independent. *)
    ( "bbcache.fig7_ctxsw.speedup",
      ( Higher,
        fun () ->
          let s = ctxsw_spec () in
          best_s ~bbcache:false s /. best_s ~bbcache:true s ) );
    (* Per-process wall-clock at 10k processes over 100: O(1) scheduling,
       indexed wakeups, the bitmap allocator and memoized spawns keep it
       flat. Self-relative, machine-independent. The median of five
       ratios, each from one run of either size taken back to back,
       alternating which goes first: host drift hits both sides of a
       ratio, and two disturbed pairs cannot move the median. Each ratio
       goes to stderr. *)
    ( "scale.per_proc_ratio",
      ( Lower,
        fun () ->
          let per n = run_s ~bbcache:true (scale_spec n) /. float_of_int n in
          let ratio i =
            if i mod 2 = 0 then
              let big = per 10_000 in
              big /. per 100
            else
              let small = per 100 in
              per 10_000 /. small
          in
          let ratios = List.init 5 ratio in
          prerr_endline
            ("gate: scale.per_proc_ratio of"
            ^ String.concat "" (List.map (Printf.sprintf " %.2f") ratios));
          List.nth (List.sort compare ratios) 2 ) );
    (* Simulated req/Mcyc is deterministic, so drift either way means the
       cost model or the scheduler changed. *)
    ( "serve.split.knee_concurrency",
      (Both, fun () -> float_of_int (Lazy.force serve_knee).Serve.Sweep.knee_concurrency) );
    ("serve.split.knee_tput", (Both, fun () -> (Lazy.force serve_knee).Serve.Sweep.knee_throughput));
  ]

exception Bad_table of string

(* The whole table is parsed and checked against [gate_metrics] before
   anything is measured. *)
let parse_gates file =
  let bad fmt = Fmt.kstr (fun m -> raise (Bad_table m)) fmt in
  let text =
    try In_channel.with_open_text file In_channel.input_all with Sys_error e -> bad "%s" e
  in
  let rows = ref [] in
  let malformed where line =
    bad "%s: malformed row %S (want: name baseline tolerance)" where (String.trim line)
  in
  let row i line =
    let where = Fmt.str "%s:%d" file (i + 1) in
    let line = match String.index_opt line '#' with Some j -> String.sub line 0 j | None -> line in
    let words =
      String.split_on_char ' ' (String.map (function '\t' | '\r' -> ' ' | c -> c) line)
      |> List.filter (( <> ) "")
    in
    match words with
    | [] -> ()
    | [ name; base; tol ] -> (
      match (List.assoc_opt name gate_metrics, float_of_string_opt base, float_of_string_opt tol) with
      | None, _, _ -> bad "%s: unknown metric %S" where name
      | Some _, _, _ when List.mem_assoc name !rows -> bad "%s: duplicate row for %S" where name
      | Some (dir, measure), Some base, Some tol
        when Float.is_finite base && Float.is_finite tol && tol >= 0. ->
        rows := (name, (dir, measure, base, tol)) :: !rows
      | Some _, _, _ -> malformed where line)
    | _ -> malformed where line
  in
  List.iteri row (String.split_on_char '\n' text);
  if !rows = [] then bad "%s: no rows" file;
  let family name = List.hd (String.split_on_char '.' name) in
  List.iter
    (fun (name, _) ->
      if
        List.exists (fun (r, _) -> family r = family name) !rows
        && not (List.mem_assoc name !rows)
      then bad "%s: no row for metric %S" file name)
    gate_metrics;
  List.rev !rows

(* One line per row; exits 1 if any row fails. *)
let gate file =
  let rows =
    try parse_gates file
    with Bad_table msg ->
      Fmt.epr "gate: %s@." msg;
      exit 2
  in
  let failures =
    List.fold_left
      (fun failures (name, (dir, measure, base, tol)) ->
        let got = measure () in
        let lo = base *. (1. -. tol) and hi = base *. (1. +. tol) in
        let ok, bound =
          match dir with
          | Lower -> (got <= hi, Fmt.str "at most %.4f" hi)
          | Higher -> (got >= lo, Fmt.str "at least %.4f" lo)
          | Both -> (lo <= got && got <= hi, Fmt.str "within %.4f..%.4f" lo hi)
        in
        out "gate: %-28s %-4s %10.4f  (baseline %.4f, %s)" name
          (if ok then "ok" else "FAIL")
          got base bound;
        if ok then failures else failures + 1)
      0 rows
  in
  if failures > 0 then exit 1

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
      ("scale", scale_exp);
      ("serve", serve_exp);
      ("profile", profile_exp);
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
    | "--gate" :: file :: rest ->
      gate file;
      run rest
    | [ "--gate" ] ->
      Fmt.epr "--gate needs a FILE argument@.";
      exit 2
    | x :: rest ->
      dispatch x;
      run rest
  in
  match args with [] -> all_reproduction () | args -> run args
