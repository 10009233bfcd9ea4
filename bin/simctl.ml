(* simctl — drive the split-memory simulator from the command line:
   run attacks under a chosen defense and response mode, inspect logs,
   and run individual workloads. *)

open Cmdliner

(* Every subcommand failure — bad flag values, unusable input files,
   gate violations — funnels through this one printer: same prefix, same
   stream, same nonzero exit for each of them. *)
let die fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "simctl: %s@." msg;
      exit 1)
    fmt

let defense_conv =
  let parse = function
    | "none" | "unprotected" -> Ok Defense.unprotected
    | "nx" -> Ok Defense.nx
    | "split" -> Ok Defense.split_standalone
    | "split+nx" -> Ok Defense.split_mixed_plus_nx
    | "soft-tlb" -> Ok Defense.split_soft_tlb
    | "dual-cr3" -> Ok Defense.split_dual_cr3
    | s -> (
      match int_of_string_opt (Filename.chop_suffix_opt ~suffix:"%" s |> Option.value ~default:"") with
      | Some pct when pct >= 0 && pct <= 100 -> Ok (Defense.split_fraction pct)
      | _ -> Error (`Msg (Fmt.str "unknown defense %S (none|nx|split|split+nx|<pct>%%)" s)))
  in
  Arg.conv (parse, fun ppf d -> Fmt.string ppf (Defense.name d))

let defense_arg =
  Arg.(
    value
    & opt defense_conv Defense.split_standalone
    & info [ "d"; "defense" ] ~docv:"DEFENSE"
        ~doc:"Protection: none, nx, split, split+nx, soft-tlb, dual-cr3, or N% (fraction split + nx).")

let response_conv =
  let parse = function
    | "break" -> Ok Split_memory.Response.Break
    | "observe" -> Ok (Split_memory.Response.Observe { sebek = true })
    | "forensics" -> Ok (Split_memory.Response.Forensics { payload = None })
    | "forensics-exit" ->
      Ok (Split_memory.Response.Forensics { payload = Some Attack.Shellcode.exit0 })
    | s -> Error (`Msg (Fmt.str "unknown response %S" s))
  in
  Arg.conv (parse, fun ppf r -> Fmt.string ppf (Split_memory.Response.name r))

let response_arg =
  Arg.(
    value
    & opt (some response_conv) None
    & info [ "r"; "response" ] ~docv:"MODE"
        ~doc:"Response mode: break, observe, forensics, forensics-exit (forces split defense).")

let apply_response defense = function
  | None -> defense
  | Some response -> Defense.split_with ~response ()

let show_outcome_and_log outcome (k : Kernel.Os.t) =
  Fmt.pr "outcome: %s@." (Attack.Runner.outcome_name outcome);
  Fmt.pr "--- kernel log ---@.%a@." Kernel.Event_log.pp (Kernel.Os.log k)

(* observability plumbing *)

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the metrics snapshot (counters, gauges, histograms) after the run.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write the cycle-stamped event trace to $(docv) as JSON Lines.")

let chrome_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chrome-trace" ] ~docv:"FILE"
        ~doc:
          "Write the trace as a Chrome trace_event document (load it in \
           about://tracing or Perfetto).")

let make_obs ~metrics ~trace ~chrome =
  if metrics || trace <> None || chrome <> None then Obs.create () else Obs.null

let render_metrics reg =
  let counters = Obs.Metrics.counters reg in
  if counters <> [] then
    print_string
      (Report.table ~title:"counters" ~header:[ "counter"; "count" ]
         (List.map (fun (n, c) -> [ n; string_of_int c ]) counters));
  let gauges = Obs.Metrics.gauges reg in
  if gauges <> [] then
    print_string
      (Report.table ~title:"gauges" ~header:[ "gauge"; "value" ]
         (List.map (fun (n, v) -> [ n; Fmt.str "%.2f" v ]) gauges));
  List.iter
    (fun (h : Obs.Metrics.histogram) ->
      if h.n > 0 then
        print_string
          (Report.dist
             ~title:
               (Fmt.str "%s (n=%d mean=%.1f min=%d max=%d)" h.h_name h.n
                  (Obs.Metrics.mean h) h.vmin h.vmax)
             (List.map
                (fun (lo, hi, c) -> (Fmt.str "%d..%d" lo hi, c))
                (Obs.Metrics.nonzero_buckets h))))
    (Obs.Metrics.histograms reg);
  List.iter
    (fun (name, cells) ->
      let top = List.filteri (fun i _ -> i < 10) cells in
      if top <> [] then print_string (Report.dist ~title:(name ^ " (top 10)") top))
    (Obs.Metrics.labeled_sets reg)

let finish_obs obs ~metrics ~trace ~chrome =
  if Obs.enabled obs then begin
    if metrics then render_metrics (Obs.snapshot obs);
    let write what f emit =
      try emit f
      with Sys_error msg -> Fmt.epr "simctl: cannot write %s: %s@." what msg
    in
    Option.iter
      (fun f ->
        write "trace" f (fun f ->
            Obs.write_trace obs f;
            Fmt.pr "trace: %d events -> %s@." (List.length (Obs.events obs)) f))
      trace;
    Option.iter
      (fun f ->
        write "chrome trace" f (fun f ->
            Obs.write_chrome_trace obs f;
            Fmt.pr "chrome trace -> %s@." f))
      chrome
  end

(* --strace: per-syscall tracing via the machine probe's syscall slot *)

let strace_arg =
  Arg.(
    value & flag
    & info [ "strace" ]
        ~doc:
          "Print every syscall as it is dispatched (name, pid, arguments, result, \
           service cycles), plus an $(b,strace -c)-style summary at exit.")

type strace_row = { mutable st_calls : int; mutable st_cycles : int }

(* Returns the machine hook to install (None when disabled) and the
   end-of-run summary printer. *)
let make_strace enabled =
  if not enabled then (None, fun () -> ())
  else begin
    let tally : (string, strace_row) Hashtbl.t = Hashtbl.create 16 in
    let trace (tr : Kernel.Machine.syscall_trace) =
      let ebx, ecx, edx = tr.sys_args in
      let result =
        match tr.sys_outcome with
        | Kernel.Machine.Returned v -> string_of_int v
        | Kernel.Machine.Blocked -> "? (blocked)"
        | Kernel.Machine.Exited -> "? (process exited)"
      in
      Fmt.pr "[pid %d] %s(0x%x, 0x%x, 0x%x) = %s <%d cycles>@." tr.sys_pid tr.sys_name
        ebx ecx edx result tr.sys_cycles;
      let row =
        match Hashtbl.find_opt tally tr.sys_name with
        | Some row -> row
        | None ->
          let row = { st_calls = 0; st_cycles = 0 } in
          Hashtbl.add tally tr.sys_name row;
          row
      in
      row.st_calls <- row.st_calls + 1;
      row.st_cycles <- row.st_cycles + tr.sys_cycles
    in
    let tune k = (Kernel.Os.probe k).syscall <- Some trace in
    let summary () =
      let rows = Hashtbl.fold (fun name row acc -> (name, row) :: acc) tally [] in
      if rows <> [] then begin
        let rows =
          List.sort
            (fun (na, a) (nb, b) ->
              match compare (b.st_cycles, b.st_calls) (a.st_cycles, a.st_calls) with
              | 0 -> compare na nb
              | c -> c)
            rows
        in
        let total_cycles = List.fold_left (fun s (_, r) -> s + r.st_cycles) 0 rows in
        let total_calls = List.fold_left (fun s (_, r) -> s + r.st_calls) 0 rows in
        let pct c =
          if total_cycles = 0 then 0.
          else 100. *. float_of_int c /. float_of_int total_cycles
        in
        print_string
          (Report.table ~title:"strace summary"
             ~header:[ "% time"; "cycles"; "calls"; "syscall" ]
             (List.map
                (fun (name, r) ->
                  [
                    Fmt.str "%.2f" (pct r.st_cycles);
                    string_of_int r.st_cycles;
                    string_of_int r.st_calls;
                    name;
                  ])
                rows
             @ [
                 [
                   "100.00";
                   string_of_int total_cycles;
                   string_of_int total_calls;
                   "total";
                 ];
               ]))
      end
    in
    (Some tune, summary)
  end

(* The machine's own counters, printed after every attack/workload run. *)
let show_machine (k : Kernel.Os.t) =
  let mmu = Kernel.Os.mmu k in
  Fmt.pr "%a@." Hw.Cost.pp (Kernel.Os.cost k);
  Fmt.pr "%a@." Hw.Tlb.pp_stats (Hw.Mmu.itlb mmu);
  Fmt.pr "%a@." Hw.Tlb.pp_stats (Hw.Mmu.dtlb mmu)

(* attack command *)

let attack_names =
  [
    ("apache", `Real Attack.Realworld.Apache_ssl);
    ("bind", `Real Attack.Realworld.Bind);
    ("proftpd", `Real Attack.Realworld.Proftpd);
    ("samba", `Real Attack.Realworld.Samba);
    ("wuftpd", `Real Attack.Realworld.Wuftpd);
    ("nx-bypass", `Nx_bypass);
    ("mixed-page", `Mixed);
  ]

let attack_arg =
  Arg.(
    required
    & pos 0 (some (enum attack_names)) None
    & info [] ~docv:"ATTACK"
        ~doc:"One of: apache, bind, proftpd, samba, wuftpd, nx-bypass, mixed-page.")

let attack_cmd =
  let run defense response metrics trace chrome strace which =
    let defense = apply_response defense response in
    let obs = make_obs ~metrics ~trace ~chrome in
    let tune, strace_summary = make_strace strace in
    (match which with
    | `Real Attack.Realworld.Wuftpd ->
      let o, s = Attack.Realworld.run_wuftpd ~defense ~obs ?tune () in
      show_outcome_and_log o s.k;
      show_machine s.k
    | `Real id ->
      let o, s = Attack.Realworld.run_session ~defense ~obs ?tune id in
      Fmt.pr "outcome: %s@." (Attack.Runner.outcome_name o);
      Option.iter (fun (s : Attack.Runner.session) -> show_machine s.k) s
    | `Nx_bypass ->
      let o, s = Attack.Bypass.run_nx_bypass_session ~defense ~obs ?tune () in
      Fmt.pr "outcome: %s@." (Attack.Runner.outcome_name o);
      show_machine s.k
    | `Mixed ->
      let o, s = Attack.Bypass.run_mixed_page_session ~defense ~obs ?tune () in
      Fmt.pr "outcome: %s@." (Attack.Runner.outcome_name o);
      show_machine s.k);
    strace_summary ();
    finish_obs obs ~metrics ~trace ~chrome
  in
  Cmd.v
    (Cmd.info "attack" ~doc:"Run a real-world attack simulation under a defense.")
    Term.(
      const run $ defense_arg $ response_arg $ metrics_arg $ trace_arg $ chrome_arg
      $ strace_arg $ attack_arg)

(* grid command *)

let grid_cmd =
  let run defense =
    List.iter
      (fun t ->
        List.iter
          (fun l ->
            let o = Attack.Wilander.run ~defense t l in
            Fmt.pr "%-34s %-6s %s@."
              (Attack.Wilander.technique_name t)
              (Attack.Wilander.location_name l)
              (Attack.Runner.outcome_name o))
          Attack.Wilander.locations)
      Attack.Wilander.techniques
  in
  Cmd.v
    (Cmd.info "grid" ~doc:"Run the 9x4 Wilander-style attack grid under a defense.")
    Term.(const run $ defense_arg)

(* workload command *)

let workload_names =
  [
    ("apache32k", `Apache 32768);
    ("apache1k", `Apache 1024);
    ("gzip", `Gzip);
    ("nbench", `Nbench);
    ("ctxsw", `Ctxsw);
    ("unixbench", `Unixbench);
  ]

let workload_arg =
  Arg.(
    required
    & pos 0 (some (enum workload_names)) None
    & info [] ~docv:"WORKLOAD"
        ~doc:"One of: apache32k, apache1k, gzip, nbench, ctxsw, unixbench.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for multi-machine workloads (unixbench). Default: the \
           machine's recommended domain count. Output is identical for any $(docv).")

(* Shared by the workload and stats commands: every workload is built as a
   first-class experiment spec and executed with the kernel in hand so the
   machine counters (cost, TLBs) can be printed. *)
let exec_workload ?tune ~obs ~jobs ~defense which =
  let show_spec spec =
    let (r : Workload.Harness.result), k = Workload.Harness.run_k ~obs ?tune spec in
    Fmt.pr
      "%s under %s: %d cycles, %d insns, %d traps, %d split faults, %d ctx switches@."
      r.label r.defense r.cycles r.insns r.traps r.split_faults r.ctx_switches;
    show_machine k
  in
  match which with
  | `Apache size -> show_spec (Workload.Figures.apache_spec ~defense ~size ~requests:25)
  | `Gzip -> show_spec (Workload.Figures.gzip_spec ~defense ~size:(48 * 1024))
  | `Nbench ->
    show_spec (Workload.Harness.single ~defense (Workload.Guests.nbench ~iters:60 ()))
  | `Ctxsw -> show_spec (Workload.Figures.ctxsw_spec ~defense ~iters:250)
  | `Unixbench ->
    (* The only multi-machine workload: fan its pieces over the fleet. *)
    if Option.is_some tune then
      Fmt.epr "simctl: --strace is not supported for fleet workloads; ignored@.";
    let jobs = match jobs with Some j -> j | None -> Fleet.default_jobs () in
    List.iter
      (fun (name, v) -> Fmt.pr "%-20s %.3f@." name v)
      (Workload.Figures.unixbench_pieces ~jobs ~defense ())

let workload_cmd =
  let run defense jobs metrics trace chrome strace which =
    let obs = make_obs ~metrics ~trace ~chrome in
    let tune, strace_summary = make_strace strace in
    exec_workload ?tune ~obs ~jobs ~defense which;
    strace_summary ();
    finish_obs obs ~metrics ~trace ~chrome
  in
  Cmd.v
    (Cmd.info "workload" ~doc:"Run a benchmark workload under a defense and print counters.")
    Term.(
      const run $ defense_arg $ jobs_arg $ metrics_arg $ trace_arg $ chrome_arg
      $ strace_arg $ workload_arg)

(* stats command: the workload run with the full observability readout *)

let stats_cmd =
  let run defense jobs trace chrome which =
    let obs = Obs.create () in
    exec_workload ~obs ~jobs ~defense which;
    finish_obs obs ~metrics:true ~trace ~chrome
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run a workload with observability on and render the full metrics snapshot \
          (counters, gauges, latency histograms, per-page/per-pid tallies).")
    Term.(const run $ defense_arg $ jobs_arg $ trace_arg $ chrome_arg $ workload_arg)

(* disasm / layout commands *)

let image_names =
  [
    ("apache", fun () -> Attack.Realworld.victim Attack.Realworld.Apache_ssl);
    ("bind", fun () -> Attack.Realworld.victim Attack.Realworld.Bind);
    ("proftpd", fun () -> Attack.Realworld.victim Attack.Realworld.Proftpd);
    ("samba", fun () -> Attack.Realworld.victim Attack.Realworld.Samba);
    ("wuftpd", fun () -> Attack.Realworld.victim Attack.Realworld.Wuftpd);
    ("plugin-host", Attack.Bypass.plugin_host);
    ("javavm", Attack.Bypass.jit_victim);
    ("bank", Attack.Limitations.bank_victim);
    ("launcher", Attack.Limitations.launcher_victim);
    ("smc", Attack.Limitations.smc_victim);
  ]

let image_arg =
  Arg.(
    required
    & pos 0 (some (enum image_names)) None
    & info [] ~docv:"IMAGE"
        ~doc:
          "One of: apache, bind, proftpd, samba, wuftpd, plugin-host, javavm, bank, \
           launcher, smc.")

let disasm_cmd =
  let run mk =
    let image = mk () in
    List.iter
      (fun (seg : Kernel.Image.segment) ->
        match seg.kind with
        | Kernel.Image.Code | Kernel.Image.Lib | Kernel.Image.Mixed ->
          Fmt.pr "; segment %s at 0x%08x (%d bytes)@." (Kernel.Image.seg_kind_name seg.kind)
            seg.base (String.length seg.bytes);
          Fmt.pr "%s@.@."
            (Isa.Disasm.to_string ~base:seg.base seg.bytes ~pos:0
               ~len:(String.length seg.bytes))
        | Kernel.Image.Rodata | Kernel.Image.Data -> ())
      image.Kernel.Image.segments
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassemble a victim image's code segments.")
    Term.(const run $ image_arg)

let layout_cmd =
  let run mk =
    let image = mk () in
    Fmt.pr "image %s, entry 0x%08x, bss %d bytes, signature %x@."
      image.Kernel.Image.name image.entry image.bss_size image.signature;
    List.iter
      (fun (seg : Kernel.Image.segment) ->
        Fmt.pr "  %-7s 0x%08x..0x%08x %s@."
          (Kernel.Image.seg_kind_name seg.kind)
          seg.base
          (seg.base + String.length seg.bytes)
          (if seg.writable then "rw" else "ro"))
      image.segments;
    let labels =
      Hashtbl.fold (fun l a acc -> (a, l) :: acc) image.labels [] |> List.sort compare
    in
    List.iter (fun (a, l) -> Fmt.pr "  %-24s 0x%08x@." l a) labels
  in
  Cmd.v
    (Cmd.info "layout" ~doc:"Print a victim image's segments and labels.")
    Term.(const run $ image_arg)

(* snapshot / restore / replay / diff commands (lib/snap) *)

let scenario_arg =
  let scen =
    Arg.enum (List.map (fun (s : Snap.Scenario.t) -> (s.name, s)) Snap.Scenario.all)
  in
  Arg.(
    required
    & pos 0 (some scen) None
    & info [] ~docv:"SCENARIO"
        ~doc:(Fmt.str "One of: %s." (String.concat ", " Snap.Scenario.names)))

let stop_name : Kernel.Os.stop_reason -> string = function
  | All_exited -> "all-exited"
  | All_blocked -> "all-blocked"
  | Fuel_exhausted -> "fuel-exhausted"

let save_snapshot ~obs ~file snap =
  try Some (Snap.Snapshot.save ~obs ~file snap)
  with Sys_error msg ->
    Fmt.epr "simctl: cannot write snapshot: %s@." msg;
    None

let load_snapshot file =
  try Snap.Snapshot.load file
  with
  | Sys_error msg -> die "cannot read snapshot: %s" msg
  | Snap.Codec.Corrupt msg -> die "%s is not a valid snapshot: %s" file msg

let snap_file_arg =
  Arg.(
    value
    & opt string "machine.snap"
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Snapshot file to write ($(docv).manifest.json rides along).")

let fuel_arg ~default ~doc =
  Arg.(value & opt int default & info [ "fuel" ] ~docv:"INSNS" ~doc)

let snapshot_cmd =
  let run metrics trace chrome (scenario : Snap.Scenario.t) fuel file =
    let obs = make_obs ~metrics ~trace ~chrome in
    let os = scenario.start ~obs () in
    let stop = Kernel.Os.run ~fuel os in
    let snap =
      Snap.Snapshot.checkpoint
        ~meta:[ ("scenario", scenario.name); ("source", "simctl") ]
        os
    in
    (match save_snapshot ~obs ~file snap with
    | None -> exit 1
    | Some bytes ->
      Fmt.pr "snapshot: %s at cycle %d (%s), %d bytes -> %s@." scenario.name
        (Snap.Snapshot.cycle snap) (stop_name stop) bytes file;
      Fmt.pr "  frames written %d, all-zero skipped %d, procs: %a@."
        (Snap.Snapshot.frames_written snap)
        (Snap.Snapshot.frames_sparse_skipped snap)
        Fmt.(
          list ~sep:comma (fun ppf (pid, name, st) -> Fmt.pf ppf "%d:%s(%s)" pid name st))
        (Snap.Snapshot.proc_summaries snap));
    finish_obs obs ~metrics ~trace ~chrome
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:
         "Run a canonical scenario for a bounded number of instructions and write a \
          whole-machine snapshot (plus JSON manifest).")
    Term.(
      const run $ metrics_arg $ trace_arg $ chrome_arg $ scenario_arg
      $ fuel_arg ~default:1500
          ~doc:"Instructions to execute before the checkpoint is taken."
      $ snap_file_arg)

let restore_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Snapshot file written by $(b,simctl snapshot).")
  in
  let run metrics trace chrome file fuel =
    let snap = load_snapshot file in
    match
      Option.bind (Snap.Snapshot.find_meta snap "scenario") Snap.Scenario.find
    with
    | None ->
      die "snapshot %s names no known scenario (meta: %a)" file
        Fmt.(list ~sep:comma (pair ~sep:(any "=") string string))
        (Snap.Snapshot.meta snap)
    | Some scenario ->
      let obs = make_obs ~metrics ~trace ~chrome in
      let os = scenario.start ~obs () in
      Snap.Snapshot.restore os snap;
      Fmt.pr "restored %s (scenario %s) at cycle %d; resuming@." file scenario.name
        (Snap.Snapshot.cycle snap);
      let stop = Kernel.Os.run ~fuel os in
      Fmt.pr "stopped: %s@." (stop_name stop);
      Fmt.pr "--- kernel log ---@.%a@." Kernel.Event_log.pp (Kernel.Os.log os);
      show_machine os;
      finish_obs obs ~metrics ~trace ~chrome
  in
  Cmd.v
    (Cmd.info "restore"
       ~doc:
         "Load a snapshot into a fresh machine built by the scenario recorded in its \
          manifest, then resume execution to completion.")
    Term.(
      const run $ metrics_arg $ trace_arg $ chrome_arg $ file_arg
      $ fuel_arg ~default:2_000_000 ~doc:"Instruction budget for the resumed run.")

let replay_cmd =
  let snap_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Also save the mid-run checkpoint to $(docv).")
  in
  let run metrics trace chrome (scenario : Snap.Scenario.t) fuel_to_checkpoint out =
    let obs = make_obs ~metrics ~trace ~chrome in
    let os = scenario.start ~obs () in
    let report, snap = Snap.Replay.check ~fuel_to_checkpoint os in
    Fmt.pr "%s: %a@." scenario.name Snap.Replay.pp report;
    Option.iter
      (fun file ->
        Option.iter
          (fun bytes -> Fmt.pr "checkpoint: %d bytes -> %s@." bytes file)
          (save_snapshot ~obs ~file snap))
      out;
    finish_obs obs ~metrics ~trace ~chrome;
    if not (Snap.Replay.ok report) then exit 1
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Determinism gate: checkpoint a scenario mid-run, finish it, restore the \
          checkpoint and re-run — exits non-zero unless the event log and cost \
          counters match bit-for-bit.")
    Term.(
      const run $ metrics_arg $ trace_arg $ chrome_arg $ scenario_arg
      $ fuel_arg ~default:1500
          ~doc:"Instructions to execute before the checkpoint is taken."
      $ snap_out_arg)

let hexdump ppf s =
  String.iteri
    (fun i c ->
      if i > 0 && i mod 16 = 0 then Fmt.pf ppf "@.";
      Fmt.pf ppf "%02x " (Char.code c))
    s

let diff_cmd =
  let dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Write capture artifacts (snapshot + manifest, payload.bin, diff.json) \
             under $(docv).")
  in
  let run (scenario : Snap.Scenario.t) dir =
    let os = scenario.start () in
    let captures = Snap.Forensics.arm ?dir os in
    ignore (Kernel.Os.run ~fuel:2_000_000 os : Kernel.Os.stop_reason);
    match !captures with
    | [] -> die "scenario %s triggered no injection detection" scenario.name
    | cs ->
      List.iter
        (fun (c : Snap.Forensics.capture) ->
          let t = c.c_trigger in
          Fmt.pr "detection: pid %d, eip 0x%08x, mode %s, cycle %d@." t.t_pid t.t_eip
            t.t_mode
            (Snap.Snapshot.cycle c.c_snapshot);
          let page_size = Snap.Snapshot.page_size c.c_snapshot in
          let page_base = t.t_eip land lnot (page_size - 1) in
          Option.iter
            (fun (d : Snap.Forensics.page_diff) ->
              Fmt.pr "page diff: vpn %d, code frame %d vs data frame %d, %d range(s)@."
                d.pd_vpn d.pd_code_frame d.pd_data_frame (List.length d.pd_ranges))
            c.c_diff;
          Fmt.pr "injected payload: %d bytes at 0x%08x@.%a@." (String.length c.c_payload)
            (page_base + c.c_payload_off)
            hexdump c.c_payload;
          Fmt.pr "--- disassembly ---@.%s@."
            (Isa.Disasm.to_string ~base:(page_base + c.c_payload_off) c.c_payload ~pos:0
               ~len:(String.length c.c_payload));
          Option.iter (fun d -> Fmt.pr "artifacts -> %s@." d) c.c_dir)
        cs
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Run an attack scenario with forensic capture armed; on detection, diff the \
          faulting page's code copy against its data copy and print the extracted \
          payload with its disassembly.")
    Term.(const run $ scenario_arg $ dir_arg)

(* inject command (lib/inject): campaign runner with the no-fault oracle *)

let inject_cmd =
  let seed_arg =
    Arg.(
      value & opt int 7
      & info [ "seed" ] ~docv:"N" ~doc:"Base injector seed for the campaign.")
  in
  let seeds_arg =
    Arg.(
      value & opt int 1
      & info [ "seeds" ] ~docv:"K"
          ~doc:"Run $(docv) consecutive seeds starting at $(b,--seed).")
  in
  let suite_arg =
    Arg.(
      value
      & opt (enum [ ("default", `Default); ("reuse", `Reuse); ("all", `All) ]) `Default
      & info [ "suite" ] ~docv:"SUITE"
          ~doc:
            "Plan suite: $(b,default) (benign + attack-break), $(b,reuse) (the \
             code-reuse defense x attack scenarios), or $(b,all).")
  in
  let run metrics trace chrome seed seeds suite jobs =
    if seeds < 1 then die "--seeds must be at least 1";
    let obs = make_obs ~metrics ~trace ~chrome in
    let plans_for seed =
      match suite with
      | `Default -> Inject.default_plans ~seed ()
      | `Reuse -> Inject.reuse_plans ~seed ()
      | `All -> Inject.default_plans ~seed () @ Inject.reuse_plans ~seed ()
    in
    let plans = List.concat_map (fun i -> plans_for (seed + i)) (List.init seeds Fun.id) in
    let verdicts = Inject.campaign ~obs ?jobs plans in
    print_string (Inject.summary_string verdicts);
    finish_obs obs ~metrics ~trace ~chrome;
    if Inject.escaped verdicts <> [] then die "campaign has escaped faults"
  in
  Cmd.v
    (Cmd.info "inject"
       ~doc:
         "Run the deterministic fault-injection campaign: every plan is paired \
          with a fault-free twin and compared bit-for-bit; exits non-zero if any \
          fault escapes (diverges without detection). The summary is identical \
          for every seed set at any $(b,-j).")
    Term.(
      const run $ metrics_arg $ trace_arg $ chrome_arg $ seed_arg $ seeds_arg
      $ suite_arg $ jobs_arg)

(* reuse command (lib/reuse): gadget scanner, chain builder, matrix *)

let reuse_cmd =
  let mode_arg =
    Arg.(
      required
      & pos 0
          (some
             (enum [ ("gadgets", `Gadgets); ("chain", `Chain); ("matrix", `Matrix) ]))
          None
      & info [] ~docv:"MODE"
          ~doc:
            "$(b,gadgets) lists every gadget the scanner finds in the victim's \
             text; $(b,chain) prints the execve ROP chain built from them; \
             $(b,matrix) runs the full defense x attack grid.")
  in
  let max_insns_arg =
    Arg.(
      value & opt int 4
      & info [ "max-insns" ] ~docv:"N"
          ~doc:"Longest gadget (instructions, terminator included) to index.")
  in
  let run jobs max_insns mode =
    if max_insns < 1 then die "--max-insns must be at least 1";
    let img = Reuse.Victim.image () in
    match mode with
    | `Gadgets ->
      let gs = Reuse.Gadget.scan_image ~max_insns img in
      List.iter (fun g -> Fmt.pr "%a@." Reuse.Gadget.pp g) gs;
      Fmt.pr "%d gadgets in %s (every byte offset of the shipped text)@."
        (List.length gs) img.Kernel.Image.name
    | `Chain ->
      let chain = Reuse.Campaign.chain_for img in
      Fmt.pr "%a" Reuse.Chain.pp chain;
      Fmt.pr "%d stack words, %d bytes on the wire, no 0x0a anywhere@."
        (List.length (Reuse.Chain.words chain))
        (String.length (Reuse.Chain.to_bytes chain))
    | `Matrix ->
      let cells = Reuse.Campaign.matrix ?jobs () in
      Reuse.Campaign.render Fmt.stdout cells;
      if not (Reuse.Campaign.check cells) then
        die "matrix deviates from the threat model (see ** cells)"
  in
  Cmd.v
    (Cmd.info "reuse"
       ~doc:
         "Code-reuse attacks (paper §7): scan the victim image for gadgets, build \
          the execve chain, or run the defense x attack matrix — injection stopped \
          by split memory, ROP/ret2libtext escaping it, both stopped by CFI. \
          $(b,matrix) exits non-zero on any cell the threat model does not \
          predict; its table is identical at any $(b,-j).")
    Term.(const run $ jobs_arg $ max_insns_arg $ mode_arg)

(* profile command (lib/prof): address-sampling profiler over a workload *)

(* The single-machine workloads only: the profiler instruments one
   machine's MMU, so the fleet axis here is "one job per requested
   workload", not unixbench's piece fan-out. *)
let profile_workloads =
  [
    ("apache32k", `Apache 32768);
    ("apache1k", `Apache 1024);
    ("gzip", `Gzip);
    ("nbench", `Nbench);
    ("ctxsw", `Ctxsw);
  ]

let profile_spec ~defense = function
  | `Apache size -> Workload.Figures.apache_spec ~defense ~size ~requests:25
  | `Gzip -> Workload.Figures.gzip_spec ~defense ~size:(48 * 1024)
  | `Nbench -> Workload.Harness.single ~defense (Workload.Guests.nbench ~iters:60 ())
  | `Ctxsw -> Workload.Figures.ctxsw_spec ~defense ~iters:250

let profile_workload_arg =
  (* carry the name alongside the tag so the report header can use it *)
  let wl = Arg.enum (List.map (fun (n, w) -> (n, (n, w))) profile_workloads) in
  Arg.(
    value & pos_all wl []
    & info [] ~docv:"WORKLOAD"
        ~doc:
          "Workloads to profile (default: apache32k). Any of: apache32k, apache1k, \
           gzip, nbench, ctxsw.")

let rate_arg =
  Arg.(
    value & opt int 64
    & info [ "rate" ] ~docv:"N"
        ~doc:"Sample every $(docv)-th successful address translation.")

let section_flag name doc = Arg.(value & flag & info [ name ] ~doc)

(* One rendered report per workload. Everything under the header is a
   pure function of the sample stream, so the bytes are identical for
   any -j and across a snapshot/replay boundary. *)
let render_profile_report ~sections name prof =
  let samples = Prof.samples prof in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Fmt.str "=== %s ===\n" name);
  Buffer.add_string buf (Prof.Analysis.summary_line samples (Prof.sampler prof));
  List.iter
    (fun section ->
      Buffer.add_char buf '\n';
      Buffer.add_string buf
        (match section with
        | `Heatmap -> Prof.Analysis.render_heatmap samples
        | `Wset -> Prof.Analysis.render_working_set samples
        | `Persist -> Prof.Analysis.render_persistence samples
        | `Hot -> Prof.Analysis.render_hot samples
        | `Csv -> Prof.Analysis.csv_heatmap samples))
    sections;
  Buffer.contents buf

let profile_job ~defense ~rate ~sections (name, which) =
  let spec = profile_spec ~defense which in
  let prof = ref None in
  let _result, _os =
    Workload.Harness.run_k ~tune:(fun k -> prof := Some (Prof.attach ~rate k)) spec
  in
  render_profile_report ~sections name (Option.get !prof)

(* Replay gate for the profiler: checkpoint the profiled run mid-flight
   (sampler state rides in snapshot metadata), finish it, then restore
   onto a fresh machine, rearm the profiler and finish again — the two
   rendered reports must match byte-for-byte. *)
let profile_replay_job ~defense ~rate ~fuel_to_checkpoint ~sections (name, which) =
  let spec = profile_spec ~defense which in
  let os = Workload.Harness.build spec in
  let prof = Prof.attach ~rate os in
  ignore (Kernel.Os.run ~fuel:fuel_to_checkpoint os : Kernel.Os.stop_reason);
  let snap = Prof.checkpoint prof in
  ignore (Kernel.Os.run ~fuel:spec.Workload.Harness.fuel os : Kernel.Os.stop_reason);
  let reference = render_profile_report ~sections name prof in
  let os' = Workload.Harness.build spec in
  Snap.Snapshot.restore os' snap;
  match Prof.rearm os' snap with
  | None -> failwith "snapshot carries no profiler state"
  | Some prof' ->
    ignore (Kernel.Os.run ~fuel:spec.Workload.Harness.fuel os' : Kernel.Os.stop_reason);
    let replayed = render_profile_report ~sections name prof' in
    if not (String.equal reference replayed) then
      failwith "replayed profile diverges from the reference run";
    reference ^ "replay-check: ok\n"

let profile_cmd =
  let bench_flag =
    Arg.(
      value & flag
      & info [ "bench" ]
          ~doc:
            "Instead of per-workload reports, run the profile-driven policy \
             experiments: the TLB capacity x eviction sweep and the hot split-page \
             ranking.")
  in
  let replay_arg =
    Arg.(
      value & flag
      & info [ "replay-check" ]
          ~doc:
            "Checkpoint each profiled run mid-flight, restore it onto a fresh \
             machine and finish both; exit non-zero unless the rendered reports \
             match byte-for-byte.")
  in
  let run defense jobs rate heatmap wset persist hot csv bench replay fuel workloads =
    if rate < 1 then die "--rate must be at least 1";
    if bench then begin
      let rows = Prof.Experiments.tlb_sweep ?jobs ~rate ~defense () in
      print_string (Prof.Experiments.render_tlb_sweep rows);
      print_newline ();
      print_string (Prof.Experiments.hot_page_ranking ?jobs ~rate ~defense ())
    end
    else begin
      let sections =
        let chosen =
          List.filter_map
            (fun (on, s) -> if on then Some s else None)
            [
              (heatmap, `Heatmap); (wset, `Wset); (persist, `Persist); (hot, `Hot);
              (csv, `Csv);
            ]
        in
        (* default view: heatmap + working set *)
        if chosen = [] then [ `Heatmap; `Wset ] else chosen
      in
      let workloads =
        if workloads = [] then [ ("apache32k", `Apache 32768) ] else workloads
      in
      let job =
        if replay then
          profile_replay_job ~defense ~rate ~fuel_to_checkpoint:fuel ~sections
        else profile_job ~defense ~rate ~sections
      in
      let results = Fleet.map ?jobs ~label:fst job workloads in
      let failed = ref false in
      List.iter
        (function
          | Ok report -> print_string report
          | Error (e : Fleet.error) ->
            failed := true;
            Fmt.epr "simctl: profile %s failed: %s@." e.label e.reason)
        results;
      if !failed then exit 1
    end
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Attach the address-sampling profiler to a workload's MMU and render \
          working-set, persistence and heatmap reports from the sample stream. \
          Output is byte-identical for any $(b,-j) and across snapshot replay.")
    Term.(
      const run $ defense_arg $ jobs_arg $ rate_arg
      $ section_flag "heatmap" "Render the pid x vpn ASCII heatmap."
      $ section_flag "wset" "Render the working-set curve (unique pages per window)."
      $ section_flag "persist" "Render the page-persistence (residency) report."
      $ section_flag "hot" "Render the hot-page ranking."
      $ section_flag "csv" "Emit the heatmap as CSV."
      $ bench_flag $ replay_arg
      $ fuel_arg ~default:60_000
          ~doc:"Instructions before the --replay-check checkpoint is taken."
      $ profile_workload_arg)

(* serve command (lib/serve): traffic-at-scale knee analysis *)

let serve_cmd =
  let sweep_flag =
    Arg.(
      value & flag
      & info [ "sweep" ]
          ~doc:
            "Run the full sweep: all five protection modes, concurrency 1..32, \
             16 requests per client, 3 knee repetitions. Default is a quick \
             two-defense sweep up to concurrency 8.")
  in
  let knee_flag =
    Arg.(
      value & flag
      & info [ "knee" ]
          ~doc:"Print only the knee table (skip the throughput-vs-concurrency curves).")
  in
  let run metrics trace chrome jobs sweep knee =
    let obs = make_obs ~metrics ~trace ~chrome in
    let t =
      if sweep then
        Serve.Sweep.run ~obs ?jobs ~concurrencies:[ 1; 2; 4; 8; 16; 32 ] ~reps:3
          ~requests:16 ()
      else
        Serve.Sweep.run ~obs ?jobs
          ~defenses:[ Defense.unprotected; Defense.split_standalone ]
          ~concurrencies:[ 1; 2; 4; 8 ] ~reps:2 ~requests:8 ()
    in
    print_string (Serve.Sweep.render ~knee_only:knee t);
    finish_obs obs ~metrics ~trace ~chrome;
    if t.Serve.Sweep.failures <> [] then die "serving sweep had failed machines"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Traffic at scale: closed-loop client/server pairs over Zipf-popular \
          pages, swept across concurrency per protection mode. Reports each \
          defense's throughput knee (lowest concurrency within 97% of its \
          peak) with latency percentiles; the tables are byte-identical for \
          any $(b,-j).")
    Term.(
      const run $ metrics_arg $ trace_arg $ chrome_arg $ jobs_arg $ sweep_flag
      $ knee_flag)

(* spawn / ps commands: the scale-out path (loader COW, indexed wakeups)
   driven interactively *)

(* Resident frames from this process's view: one per mapped pte, two when
   the page is split (code + data copies). Shared COW frames are counted
   at every holder, so the column sums to more than the machine's peak
   when sharing is on — peak_in_use is the machine-wide truth. *)
let proc_frames (p : Kernel.Proc.t) =
  let n = ref 0 in
  Kernel.Aspace.iter_ptes p.aspace (fun pte ->
      n := !n + (match pte.split with Some _ -> 2 | None -> 1));
  !n

let ps_table (k : Kernel.Os.t) =
  let m = Kernel.Os.machine k in
  print_string
    (Report.table ~title:"processes"
       ~header:[ "pid"; "name"; "state"; "frames"; "insns" ]
       (List.map
          (fun (p : Kernel.Proc.t) ->
            [
              string_of_int p.pid;
              p.name;
              Fmt.str "%a" Kernel.Proc.pp_state p.state;
              string_of_int (proc_frames p);
              string_of_int p.p_insns;
            ])
          (Kernel.Machine.procs m)))

let spawn_cmd =
  let copies_arg =
    Arg.(
      value & opt int 100
      & info [ "copies" ] ~docv:"N" ~doc:"Identical guests to spawn.")
  in
  let share_arg =
    Arg.(
      value & flag
      & info [ "share-images" ]
          ~doc:
            "Loader COW: back every copy's read-only image pages with the same \
             physical frames (copied privately on first write).")
  in
  let frames_arg =
    Arg.(
      value & opt int 32768
      & info [ "frames" ] ~docv:"N" ~doc:"Physical frames on the machine.")
  in
  let ps_flag =
    Arg.(
      value & flag & info [ "ps" ] ~doc:"Print the process table after the run.")
  in
  let run metrics trace chrome defense copies share frames ps fuel =
    if copies < 1 then die "--copies must be at least 1, got %d" copies;
    let obs = make_obs ~metrics ~trace ~chrome in
    let k =
      Kernel.Os.create ~obs ~frames ~tlb_fill:(Defense.tlb_fill defense)
        ~share_images:share
        ~protection:(Defense.to_protection defense) ()
    in
    let img = Workload.Guests.scale_unit ~rounds:2 () in
    for _ = 1 to copies do
      ignore (Kernel.Os.spawn k img : Kernel.Proc.t)
    done;
    let stop = Kernel.Os.run ~fuel k in
    Fmt.pr "spawned %d x %s under %s%s: %s@." copies img.Kernel.Image.name
      (Defense.name defense)
      (if share then " (shared images)" else "")
      (stop_name stop);
    Fmt.pr "peak frames in use: %d@."
      (Kernel.Frame_alloc.peak_in_use (Kernel.Os.alloc k));
    show_machine k;
    if ps then ps_table k;
    finish_obs obs ~metrics ~trace ~chrome
  in
  Cmd.v
    (Cmd.info "spawn"
       ~doc:
         "Spawn N identical guests on one machine and run them to completion — \
          the 10k-process scale-out path ($(b,--copies 10000 --share-images)). \
          Spawn cost is O(1) in image size (memoized verification) and, with \
          $(b,--share-images), the copies share their read-only image frames.")
    Term.(
      const run $ metrics_arg $ trace_arg $ chrome_arg $ defense_arg $ copies_arg
      $ share_arg $ frames_arg $ ps_flag
      $ fuel_arg ~default:200_000_000 ~doc:"Instruction budget for the run.")

let ps_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Snapshot file written by $(b,simctl snapshot).")
  in
  let run file =
    let snap = load_snapshot file in
    match
      Option.bind (Snap.Snapshot.find_meta snap "scenario") Snap.Scenario.find
    with
    | None ->
      die "snapshot %s names no known scenario (meta: %a)" file
        Fmt.(list ~sep:comma (pair ~sep:(any "=") string string))
        (Snap.Snapshot.meta snap)
    | Some scenario ->
      let os = scenario.start () in
      Snap.Snapshot.restore os snap;
      Fmt.pr "%s (scenario %s) at cycle %d@." file scenario.name
        (Snap.Snapshot.cycle snap);
      ps_table os
  in
  Cmd.v
    (Cmd.info "ps"
       ~doc:
         "Load a snapshot and print its process table, pid-sorted: state, \
          resident frames (split pages count their code and data copies), \
          retired instructions. Does not resume execution.")
    Term.(const run $ file_arg)

let main =
  Cmd.group
    (Cmd.info "simctl" ~version:"1.0.0"
       ~doc:"Split-memory virtual Harvard architecture simulator control tool.")
    [
      attack_cmd;
      grid_cmd;
      workload_cmd;
      stats_cmd;
      disasm_cmd;
      layout_cmd;
      snapshot_cmd;
      restore_cmd;
      replay_cmd;
      diff_cmd;
      inject_cmd;
      reuse_cmd;
      profile_cmd;
      serve_cmd;
      spawn_cmd;
      ps_cmd;
    ]

let () = exit (Cmd.eval main)
