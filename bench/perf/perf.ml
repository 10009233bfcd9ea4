(* The single-domain host-time benchmark of the split-memory simulator.

     perf.exe [--workload W]... [--seed N] [--seconds S] [--trace 0|1]
              [--json OUT] [--spans FILE] [--spec FILE] [--smoke] [W...]
     perf.exe compare [--spec FILE] A.json B.json

   Every workload runs in this process, on this domain. [--trace 0]
   measures the end-to-end metrics with tracing off; [--trace 1] the
   per-layer metrics (traced reps, public counters, isolated loops);
   without [--trace], both. The spec file (BENCHMARK.json) names the
   metrics the last output line carries and the bounds [compare]
   applies. A failed check makes the exit code non-zero. *)

module J = Obs.Json

let split = Defense.split_standalone

(* --- checks -------------------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0

let check name ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "perf: check failed: %s\n%!" name
  end

let checks_of (r : Work.rep) = List.iter (fun (name, ok) -> check name ok) r.checks

(* Every rep of one workload and seed must reproduce the first exactly:
   cost, TLB and block-cache counters, event logs, snapshot sizes and
   the workload's simulated outcomes. *)
let same_sim (a : Work.rep) (b : Work.rep) =
  a.stats = b.stats && a.logs = b.logs && a.peak_frames = b.peak_frames && a.cycles = b.cycles
  && a.sim = b.sim && a.blobs = b.blobs

(* --- metrics ------------------------------------------------------------- *)

type metric = {
  name : string;
  unit_ : string;
  samples : float array;  (* one per rep; a single value for per-layer metrics *)
  exact : bool;  (* deterministic: two runs of one seed must agree exactly *)
}

let value m = Loops.median m.samples

(* Quartiles by the exclusive method of Python's
   statistics.quantiles(n=4). *)
let quartiles samples =
  let d = Array.copy samples in
  Array.sort compare d;
  let n = Array.length d in
  if n < 2 then (d.(0), d.(0))
  else
    let q i =
      let j = max 1 (min (n - 1) (i * (n + 1) / 4)) in
      let delta = (i * (n + 1)) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

let sampled name unit_ samples = { name; unit_; samples; exact = false }
let one ?(exact = false) name unit_ v = { name; unit_; samples = [| v |]; exact }
let ratio a b = if b = 0.0 then 0.0 else a /. b
let now = Span.now_ns
let mib = 1048576.0

type plan = {
  seconds : float;  (* measuring time per phase *)
  min_reps : int;
  min_pairs : int;  (* untraced/traced rep pairs *)
  smoke : bool;
}

let deadline plan = now () + int_of_float (plan.seconds *. 1e9)

let live_words () =
  Gc.full_major ();
  (Gc.quick_stat ()).live_words

let seconds_between t0 t1 = float_of_int (t1 - t0) /. 1e9

(* [Hostspeed]'s ns per step on the reference host, rounded (see
   README.md): host times are reported at that speed. *)
let probe_ref_ns = 2.8

(* End-to-end phase, tracing off. A warm-up rep is discarded; it gives
   the live heap its machines hold. Then reps until the time is up, each
   timing its setup, the host-speed probe and its run phase apart; setup
   and run start from a collected heap so neither pays for its
   predecessor's garbage. Each rep's host times are scaled by its probe
   to the reference host, which cancels the host's drift; the raw values
   are reported beside them. *)
let end_to_end plan (w : Work.t) =
  let probe = Work.plain () in
  let live0 = live_words () in
  let run = w.setup ~defense:split probe in
  let first = run () in
  let live = float_of_int ((live_words () - live0) * (Sys.word_size / 8)) /. mib in
  let (_ : unit -> Work.rep) = Sys.opaque_identity run in
  checks_of first;
  let until = deadline plan in
  let rec reps i acc =
    if i >= plan.min_reps && now () >= until then List.rev acc
    else begin
      Gc.full_major ();
      let t0 = now () in
      let run = w.setup ~defense:split probe in
      let setup_s = seconds_between t0 (now ()) in
      Gc.full_major ();
      let probe_ns = Hostspeed.ns_per_step () in
      let w0 = Gc.minor_words () and t0 = now () in
      let r = run () in
      let t1 = now () and w1 = Gc.minor_words () in
      checks_of r;
      check (Printf.sprintf "%s rep %d reproduces rep 1" w.name (i + 2)) (same_sim first r);
      let insns = float_of_int r.insns in
      reps (i + 1)
        ((probe_ns, setup_s, insns /. seconds_between t0 t1 /. 1e6, (w1 -. w0) /. insns) :: acc)
    end
  in
  let rs = Array.of_list (reps 0 []) in
  let probes = Array.map (fun (p, _, _, _) -> p) rs in
  let setup = Array.map (fun (_, s, _, _) -> s) rs in
  let mips = Array.map (fun (_, _, m, _) -> m) rs in
  let scaled f a = Array.map2 (fun v p -> f v (p /. probe_ref_ns)) a probes in
  [
    sampled "sim_mips" "Minsn/s" (scaled ( *. ) mips);
    sampled "setup_s" "s" (scaled ( /. ) setup);
    sampled "minor_words_per_insn" "words/insn" (Array.map (fun (_, _, _, a) -> a) rs);
    one "live_mb" "MiB" live;
    sampled "host.probe_ns" "ns" probes;
    sampled "sim_mips.raw" "Minsn/s" mips;
    sampled "setup_s.raw" "s" setup;
  ]

let add (a : Span.agg) (b : Span.agg) : Span.agg =
  {
    calls = a.calls + b.calls;
    total_ns = a.total_ns + b.total_ns;
    self_ns = a.self_ns + b.self_ns;
    minor_words = a.minor_words +. b.minor_words;
  }

(* Sum of per-rep span aggregates. *)
let sum_aggs aggs name = List.fold_left (fun acc agg -> add acc (agg name)) Span.zero aggs

let snap_names = [ "snap.checkpoint"; "snap.encode"; "snap.decode"; "snap.restore" ]

(* Snapshot round trips of a finished machine, for workloads whose run
   takes no checkpoint: checkpoint, encode, decode, restore in place. *)
let snap_isolated ~smoke k =
  let sp = Span.create () in
  let probe = { (Work.plain ()) with spans = Some sp } in
  let blobs =
    List.init (if smoke then 1 else 5) (fun _ ->
        let snap = Work.timed probe "snap.checkpoint" (fun k -> Snap.Snapshot.checkpoint k) k in
        let blob = Work.timed probe "snap.encode" Snap.Snapshot.encode snap in
        let back = Work.timed probe "snap.decode" Snap.Snapshot.decode blob in
        Work.timed probe "snap.restore" (Snap.Snapshot.restore k) back;
        String.length blob)
  in
  (Span.aggregate sp, blobs)

(* Per-layer phase: pairs of an untraced and a traced rep until the time
   is up, then the unprotected twin and the isolated loops. *)
let layers plan (w : Work.t) =
  let r0 = w.setup ~defense:split (Work.plain ()) () in
  checks_of r0;
  let until = deadline plan in
  let first_trace = ref None in
  let rec pairs i acc =
    if i >= plan.min_pairs && now () >= until then List.rev acc
    else begin
      let run = w.setup ~defense:split (Work.plain ()) in
      Gc.full_major ();
      let t0 = now () in
      let r = run () in
      let plain_ns = now () - t0 in
      checks_of r;
      check (Printf.sprintf "%s rep %d reproduces rep 1" w.name (i + 2)) (same_sim r0 r);
      let sp = Span.create () in
      let run = w.setup ~defense:split (Work.traced sp) in
      Span.clear sp;
      Gc.full_major ();
      let rt = Span.wrap sp (Span.id sp "rep") run () in
      checks_of rt;
      check (Printf.sprintf "%s traced rep %d equals untraced" w.name (i + 1)) (same_sim r0 rt);
      if Option.is_none !first_trace then first_trace := Some sp;
      pairs (i + 1) ((plain_ns, Span.aggregate sp, rt) :: acc)
    end
  in
  let ps = pairs 0 [] in
  let n = float_of_int (List.length ps) in
  let agg = sum_aggs (List.map (fun (_, a, _) -> a) ps) in
  let rep_ns = float_of_int (agg "rep").total_ns in
  let insns =
    float_of_int (List.fold_left (fun acc (_, _, (r : Work.rep)) -> acc + r.insns) 0 ps)
  in
  let sched_self = float_of_int (agg "sched.run").self_ns in
  (* calls per rep, then (where there are calls) time per call and the
     share of traced host time, for each span and for the group *)
  let group ?(words = false) label names =
    let block name members =
      let a = List.fold_left (fun acc m -> add acc (agg m)) Span.zero members in
      let calls = float_of_int a.calls and total = float_of_int a.total_ns in
      one ~exact:true (name ^ ".calls") "count" (calls /. n)
      ::
      (if a.calls = 0 then []
       else
         [
           one (name ^ ".ns_per_call") "ns" (total /. calls);
           one (name ^ ".share") "ratio" (total /. rep_ns);
         ]
         @
         if words then [ one (name ^ ".words_per_call") "words" (a.minor_words /. calls) ]
         else [])
    in
    List.concat_map (fun s -> block s [ s ]) names @ block label names
  in
  let snap_agg, blobs =
    if (agg "snap.checkpoint").calls > 0 then
      (agg, List.concat_map (fun (_, _, (r : Work.rep)) -> r.blobs) ps)
    else snap_isolated ~smoke:plan.smoke r0.final
  in
  let snap_ns name = float_of_int (snap_agg name).total_ns in
  let per_call_ms name = ratio (snap_ns name) (float_of_int (snap_agg name).calls) /. 1e6 in
  let bytes = float_of_int (List.fold_left ( + ) 0 blobs) in
  let plain_med = Loops.median (Array.of_list (List.map (fun (t, _, _) -> float_of_int t) ps)) in
  let traced_med =
    Loops.median
      (Array.of_list (List.map (fun (_, a, _) -> float_of_int (a "rep").Span.total_ns) ps))
  in
  let stat name = float_of_int (Work.counter r0.stats name) in
  let twin = w.setup ~defense:Defense.unprotected (Work.plain ()) () in
  checks_of twin;
  let norm =
    List.fold_left2
      (fun acc base prot -> Float.min acc (float_of_int base /. float_of_int prot))
      infinity twin.cycles r0.cycles
  in
  let loops = Loops.run ~smoke:plan.smoke in
  let loop name = List.assoc name loops in
  (* the dispatch path's host time predicted from counts x isolated
     per-call costs: a block lookup and an ITLB translation per dispatched
     block, a decode per instruction built into a block, a DTLB
     translation per data access hit, a walk per miss; against the
     measured sched.run self time *)
  let predicted =
    ((stat "bbcache.hits" +. stat "bbcache.misses")
    *. (loop "hw.bbcache.lookup_hit.ns" +. loop "hw.mmu.translate_hit.ns"))
    +. (stat "bbcache.insns_built" *. loop "isa.decode.ns")
    +. (stat "tlb.dtlb.hits" *. loop "hw.mmu.translate_hit.ns")
    +. ((stat "tlb.itlb.misses" +. stat "tlb.dtlb.misses") *. loop "hw.mmu.translate_miss.ns")
  in
  let metrics =
    [
      one "sched.run.self_ns_per_insn" "ns" (sched_self /. insns);
      one "sched.run.share" "ratio" (sched_self /. rep_ns);
    ]
    @ group ~words:true "syscalls"
        [ "syscalls.read"; "syscalls.write"; "syscalls.nanosleep"; "syscalls.other" ]
    @ group "split_memory" [ "split_memory.alg1"; "split_memory.alg2"; "split_memory.map" ]
    @ [
        one "snap.share" "ratio"
          (List.fold_left (fun acc s -> acc +. float_of_int (agg s).total_ns) 0.0 snap_names
          /. rep_ns);
        one ~exact:true "snap.checkpoints" "count"
          (float_of_int (agg "snap.checkpoint").calls /. n);
        one "snap.checkpoint.ms" "ms" (per_call_ms "snap.checkpoint");
        one "snap.restore.ms" "ms" (per_call_ms "snap.restore");
        one "snap.encode.mib_per_s" "MiB/s" (ratio (bytes /. mib) (snap_ns "snap.encode" /. 1e9));
        one "snap.decode.mib_per_s" "MiB/s" (ratio (bytes /. mib) (snap_ns "snap.decode" /. 1e9));
        one ~exact:true "snap.blob_mib" "MiB"
          (bytes /. float_of_int (max 1 (List.length blobs)) /. mib);
        one "trace.overhead" "ratio" ((traced_med /. plain_med) -. 1.0);
      ]
    @ Array.to_list
        (Array.mapi
           (fun i name -> one ~exact:true name "count" (float_of_int r0.stats.(i)))
           Work.counter_names)
    @ [
        one ~exact:true "cost.cpi" "cycles/insn" (ratio (stat "cost.cycles") (stat "cost.insns"));
        one ~exact:true "bbcache.insns_per_block" "insns"
          (ratio (stat "bbcache.insns_built") (stat "bbcache.blocks_built"));
        one ~exact:true "bbcache.hit_rate" "ratio"
          (ratio (stat "bbcache.hits") (stat "bbcache.hits" +. stat "bbcache.misses"));
        one ~exact:true "frame_alloc.peak_frames" "count" (float_of_int r0.peak_frames);
        one ~exact:true "sim.norm_perf" "ratio" norm;
      ]
    @ (match w.paper with
      | Some p -> [ one ~exact:true "sim.paper_abs_err" "ratio" (Float.abs (norm -. p)) ]
      | None -> [])
    @ List.map (fun (name, u, v) -> one ~exact:true name u v) r0.sim
    @ List.map (fun (name, v) -> one name "ns" v) loops
    @ [ one "dispatch.closure" "ratio" (ratio predicted (sched_self /. n)) ]
  in
  (metrics, List.length ps, !first_trace)

(* --- BENCHMARK.json ------------------------------------------------------ *)

type bound = { b_name : string; b_unit : string; bound : float; lower_better : bool }
type spec = { e2e : bound list; per_layer : (string * string) list }

let num = function J.Float f -> Some f | J.Int i -> Some (float_of_int i) | _ -> None

let read_json file =
  match J.of_string (In_channel.with_open_bin file In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" file e)

let load_spec file =
  let j = read_json file in
  let entries key =
    match J.member key j with
    | Some (J.List l) -> l
    | _ -> failwith (Printf.sprintf "%s: no %s list" file key)
  in
  let str key e = Option.get (Option.bind (J.member key e) J.to_str) in
  {
    e2e =
      List.map
        (fun e ->
          {
            b_name = str "name" e;
            b_unit = str "unit" e;
            bound = Option.get (Option.bind (J.member "bound" e) num);
            lower_better = str "better" e = "lower";
          })
        (entries "end_to_end");
    per_layer = List.map (fun e -> (str "name" e, str "unit" e)) (entries "per_layer");
  }

(* --- report -------------------------------------------------------------- *)

(* The revision, read straight from .git (no subprocess); "unknown"
   outside a git checkout. *)
let git_rev () =
  let first_line path =
    try In_channel.with_open_bin path In_channel.input_line |> Option.map String.trim
    with Sys_error _ -> None
  in
  let packed r =
    try
      In_channel.with_open_bin ".git/packed-refs" In_channel.input_all
      |> String.split_on_char '\n'
      |> List.find_map (fun l ->
             match String.split_on_char ' ' l with
             | [ hash; name ] when name = r -> Some hash
             | _ -> None)
    with Sys_error _ -> None
  in
  match first_line ".git/HEAD" with
  | None -> "unknown"
  | Some h when String.starts_with ~prefix:"ref: " h ->
    let r = String.sub h 5 (String.length h - 5) in
    Option.value ~default:"unknown"
      (match first_line (".git/" ^ r) with Some rev -> Some rev | None -> packed r)
  | Some h -> h

let metric_json m =
  let spread =
    if Array.length m.samples < 2 then []
    else
      let q1, q3 = quartiles m.samples in
      [
        ("n", J.Int (Array.length m.samples));
        ("q1", J.Float q1);
        ("q3", J.Float q3);
        ("samples", J.List (Array.to_list (Array.map (fun v -> J.Float v) m.samples)));
      ]
  in
  J.Obj
    ([ ("value", J.Float (value m)); ("unit", J.Str m.unit_) ]
    @ spread
    @ if m.exact then [ ("exact", J.Bool true) ] else [])

let print_metric m =
  let spread =
    if Array.length m.samples < 2 then ""
    else
      let q1, q3 = quartiles m.samples in
      Printf.sprintf "  (median of %d, q1 %.6g, q3 %.6g)" (Array.length m.samples) q1 q3
  in
  Printf.printf "  %-34s %14.6g %-11s%s\n%!" m.name (value m) m.unit_ spread

(* --- benchmark run ------------------------------------------------------- *)

let workload_names = List.map (fun (w : Work.t) -> w.name) (Work.all ~smoke:true ~seed:0)

let bench ~seed ~trace ~plan ~json ~spans ~spec names =
  let spec = load_spec spec in
  let host =
    [
      ("ocaml", J.Str Sys.ocaml_version);
      ("recommended_domain_count", J.Int (Domain.recommended_domain_count ()));
      ("word_size", J.Int Sys.word_size);
      ("rev", J.Str (git_rev ()));
      ("seed", J.Int seed);
      ("seconds", J.Float plan.seconds);
      ("smoke", J.Bool plan.smoke);
    ]
  in
  Printf.printf "perf: %s\n%!" (J.to_string (J.Obj host));
  let works =
    List.filter (fun (w : Work.t) -> List.mem w.name names) (Work.all ~smoke:plan.smoke ~seed)
  in
  let results =
    List.map
      (fun (w : Work.t) ->
        Printf.printf "== %s\n%!" w.name;
        let e2e = if trace = Some 1 then [] else end_to_end plan w in
        List.iter print_metric e2e;
        let per_layer, pairs, sp = if trace = Some 0 then ([], 0, None) else layers plan w in
        List.iter print_metric per_layer;
        let reps =
          [
            ("timed", J.Int (match e2e with m :: _ -> Array.length m.samples | [] -> 0));
            ("traced", J.Int pairs);
          ]
        in
        (w.name, e2e @ per_layer, reps, sp))
      works
  in
  let wanted =
    (if trace = Some 1 then [] else List.map (fun b -> (b.b_name, b.b_unit)) spec.e2e)
    @ if trace = Some 0 then [] else spec.per_layer
  in
  let single = List.length results = 1 in
  let line =
    List.concat_map
      (fun (wname, metrics, _, _) ->
        List.filter_map
          (fun (name, unit_) ->
            match List.find_opt (fun m -> m.name = name) metrics with
            | None ->
              check (Printf.sprintf "%s reports %s" wname name) false;
              None
            | Some m ->
              check (Printf.sprintf "%s.%s unit %s" wname name unit_) (m.unit_ = unit_);
              Some
                ( (if single then name else wname ^ "/" ^ name),
                  J.Obj [ ("value", J.Float (value m)); ("unit", J.Str m.unit_) ] ))
          wanted)
      results
  in
  Option.iter
    (fun file ->
      let workloads =
        List.map
          (fun (wname, metrics, reps, _) ->
            ( wname,
              J.Obj
                [
                  ("reps", J.Obj reps);
                  ("metrics", J.Obj (List.map (fun m -> (m.name, metric_json m)) metrics));
                ] ))
          results
      in
      Out_channel.with_open_bin file (fun oc ->
          output_string oc
            (J.to_string
               (J.Obj
                  [
                    ("schema", J.Str "split-memory-perf/1");
                    ("host", J.Obj host);
                    ( "checks",
                      J.Obj [ ("attempted", J.Int !attempted); ("failed", J.Int !failed) ] );
                    ("workloads", J.Obj workloads);
                  ]));
          output_char oc '\n'))
    json;
  Option.iter
    (fun file ->
      let events =
        List.concat
          (List.mapi
             (fun i (wname, _, _, sp) ->
               match sp with
               | Some sp -> Span.chrome_events ~tid:(i + 1) ~thread:wname sp
               | None -> [])
             results)
      in
      Out_channel.with_open_bin file (fun oc ->
          output_string oc "{\"traceEvents\":[\n";
          output_string oc (String.concat ",\n" events);
          output_string oc "\n]}\n"))
    spans;
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (!failed = 0));
            ("attempted", J.Int !attempted);
            ("failed", J.Int !failed);
            ("metrics", J.Obj line);
          ]));
  if !failed > 0 then exit 1

(* --- compare ------------------------------------------------------------- *)

let compare_reports ~spec a b =
  let spec = load_spec spec in
  let ja = read_json a and jb = read_json b in
  let field path j =
    List.fold_left (fun acc k -> Option.bind acc (J.member k)) (Some j) path
  in
  let rev j = Option.value ~default:"?" (Option.bind (field [ "host"; "rev" ] j) J.to_str) in
  Printf.printf "A %s (rev %s)\nB %s (rev %s)\n" a (rev ja) b (rev jb);
  let bad = ref 0 in
  let workloads = match J.member "workloads" ja with Some (J.Obj ws) -> ws | _ -> [] in
  List.iter
    (fun (wname, wa) ->
      match field [ "workloads"; wname ] jb with
      | None ->
        Printf.printf "%s: missing from B\n" wname;
        incr bad
      | Some wb ->
        let get j name key = Option.bind (field [ "metrics"; name; key ] j) num in
        List.iter
          (fun bd ->
            match (get wa bd.b_name "value", get wb bd.b_name "value") with
            | Some va, Some vb ->
              let quartiles j =
                match (get j bd.b_name "q1", get j bd.b_name "q3") with
                | Some q1, Some q3 -> Printf.sprintf " [%.6g, %.6g]" q1 q3
                | _ -> ""
              in
              let change = ratio (vb -. va) va in
              let worse = if bd.lower_better then change else -.change in
              let ok = worse <= bd.bound in
              if not ok then incr bad;
              Printf.printf "%-9s %-22s A %.6g%s  B %.6g%s  %+.2f%%  %s (bound %.0f%%)\n" wname
                bd.b_name va (quartiles wa) vb (quartiles wb)
                (100.0 *. change)
                (if ok then "within" else "WORSE")
                (100.0 *. bd.bound)
            | Some _, None ->
              incr bad;
              Printf.printf "%-9s %-22s missing from B\n" wname bd.b_name
            | None, _ -> ())
          spec.e2e;
        let metrics_a = match field [ "metrics" ] wa with Some (J.Obj ms) -> ms | _ -> [] in
        let same = ref 0 in
        List.iter
          (fun (name, m) ->
            if J.member "exact" m = Some (J.Bool true) then
              match (get wa name "value", get wb name "value") with
              | Some va, Some vb when va = vb -> incr same
              | va, vb ->
                incr bad;
                let show = function Some v -> Printf.sprintf "%.17g" v | None -> "-" in
                Printf.printf "%-9s %-22s deterministic metric differs: A %s  B %s\n" wname name
                  (show va) (show vb))
          metrics_a;
        Printf.printf "%-9s %d deterministic metrics identical\n" wname !same)
    workloads;
  if !bad > 0 then exit 1

(* --- command line -------------------------------------------------------- *)

let usage =
  "perf.exe [--workload W]... [--seed N] [--seconds S] [--trace 0|1] [--json OUT] [--spans \
   FILE] [--spec FILE] [--smoke] [W...]\n\
   perf.exe compare [--spec FILE] A.json B.json"

let () =
  let spec = ref "BENCHMARK.json" in
  let spec_arg =
    ("--spec", Arg.Set_string spec, "FILE benchmark definition (default BENCHMARK.json)")
  in
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "compare" then begin
    let files = ref [] in
    (try
       Arg.parse_argv ~current:(ref 1) Sys.argv [ spec_arg ]
         (fun f -> files := !files @ [ f ])
         usage
     with
     | Arg.Bad msg ->
       prerr_string msg;
       exit 2
     | Arg.Help msg ->
       print_string msg;
       exit 0);
    match !files with
    | [ a; b ] -> compare_reports ~spec:!spec a b
    | _ ->
      prerr_endline usage;
      exit 2
  end
  else begin
    let seed = ref 1 and seconds = ref None and trace = ref None and json = ref None in
    let spans = ref None and smoke = ref false and names = ref [] in
    let add_workload w =
      if not (List.mem w workload_names) then
        raise
          (Arg.Bad
             (Printf.sprintf "unknown workload %S (one of %s)" w
                (String.concat ", " workload_names)));
      names := w :: !names
    in
    let args =
      [
        ("--workload", Arg.String add_workload, "NAME run this workload (repeatable; default all)");
        ("--seed", Arg.Set_int seed, "N input seed (default 1)");
        ( "--seconds",
          Arg.Float (fun s -> seconds := Some s),
          "S measuring time per phase (default 6)" );
        ( "--trace",
          Arg.Int
            (function
            | (0 | 1) as t -> trace := Some t
            | _ -> raise (Arg.Bad "--trace takes 0 or 1")),
          "0|1 end-to-end metrics only (0) or per-layer metrics only (1)" );
        ("--json", Arg.String (fun f -> json := Some f), "OUT write the full report");
        ( "--spans",
          Arg.String (fun f -> spans := Some f),
          "FILE write the traced spans as Chrome-trace JSON" );
        spec_arg;
        ("--smoke", Arg.Set smoke, " tiny sizes and 2 reps (the runtest check)");
      ]
    in
    (try Arg.parse_argv Sys.argv args add_workload usage with
    | Arg.Bad msg ->
      prerr_string msg;
      exit 2
    | Arg.Help msg ->
      print_string msg;
      exit 0);
    let plan =
      if !smoke then
        { seconds = Option.value ~default:0.0 !seconds; min_reps = 2; min_pairs = 1; smoke = true }
      else
        {
          seconds = Option.value ~default:6.0 !seconds;
          min_reps = 10;
          min_pairs = 2;
          smoke = false;
        }
    in
    let names = if !names = [] then workload_names else !names in
    bench ~seed:!seed ~trace:!trace ~plan ~json:!json ~spans:!spans ~spec:!spec names
  end
