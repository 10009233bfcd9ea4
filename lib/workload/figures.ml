(* The paper's performance experiments (Figs. 6–9) as data producers. Each
   figure assembles the specs for every machine it needs — protected
   configurations and their unprotected baselines — runs them through the
   fleet ([jobs] worker domains, default 1), and derives its points from
   the results. Fleet results come back in submission order, so every
   figure is bit-identical for any [jobs]. *)

type point = { x : string; value : float }

let kb n = n * 1024

(* Workload sizes scaled so the full evaluation runs in seconds while
   keeping every ratio meaningful (documented in EXPERIMENTS.md). *)
let apache_requests = 25
let gzip_size = kb 48
let nbench_iters = 60
let syscall_iters = 2500
let pipe_iters = 800
let ctxsw_iters = 250
let spawn_iters = 60
let fscopy_passes = 3
let fscopy_size = kb 24

(* --- spec builders ------------------------------------------------------- *)

let apache_spec ~defense ~size ~requests =
  Harness.pair ~defense
    (Guests.apache_server ~size ())
    (Guests.apache_client ~size ~requests ())

let gzip_spec ~defense ~size =
  Harness.pair ~defense ~capacity:4096
    (Guests.gzip_disk ~size ~block:4096 ())
    (Guests.gzip ~size ())

let ctxsw_spec ~defense ~iters =
  Harness.pair ~defense (Guests.ctxsw_ping ~iters ()) (Guests.ctxsw_pong ())

(* --- single-machine runners ---------------------------------------------- *)

let run_apache ?obs ~defense ~size ~requests () =
  Harness.run ?obs (apache_spec ~defense ~size ~requests)

let run_gzip ?obs ~defense ~size () = Harness.run ?obs (gzip_spec ~defense ~size)

let run_ctxsw ?obs ~defense ~iters () = Harness.run ?obs (ctxsw_spec ~defense ~iters)

(* --- keyed fleet execution ----------------------------------------------- *)

(* Run a keyed spec list through the fleet and return a lookup; figures
   must see every machine finish, so job failures re-raise. *)
let lookup_of ?obs ?jobs keyed =
  let results = Harness.run_fleet_exn ?obs ?jobs (List.map snd keyed) in
  let tbl = Hashtbl.create (List.length keyed) in
  List.iter2 (fun (key, _) r -> Hashtbl.replace tbl key r) keyed results;
  fun key ->
    match Hashtbl.find_opt tbl key with
    | Some r -> r
    | None -> invalid_arg ("Figures: unknown key " ^ key)

(* [base]/[prot] spec pair under a key, and the normalized ratio of their
   results — the unit every figure is built from. *)
let vs key mk ~defense =
  [ (key ^ "|base", mk Defense.unprotected); (key ^ "|prot", mk defense) ]

let nrm look key =
  Harness.normalized ~baseline:(look (key ^ "|base")) (look (key ^ "|prot"))

let apache_normalized ?jobs ~defense ~size ~requests () =
  let look =
    lookup_of ?jobs (vs "apache" ~defense (fun d -> apache_spec ~defense:d ~size ~requests))
  in
  nrm look "apache"

let ctxsw_normalized ?jobs ~defense ~iters () =
  let look =
    lookup_of ?jobs (vs "ctxsw" ~defense (fun d -> ctxsw_spec ~defense:d ~iters))
  in
  nrm look "ctxsw"

(* --- nbench / Unixbench -------------------------------------------------- *)

let nbench_specs ~defense =
  List.concat_map
    (fun (name, image) ->
      vs ("nbench:" ^ name) ~defense (fun d -> Harness.single ~defense:d image))
    (Guests.nbench_suite ~scale:(nbench_iters / 12))

let nbench_names () = List.map fst (Guests.nbench_suite ~scale:1)

(* nbench reports per-test scores; the paper quotes the slowest. *)
let nbench_results ?jobs ~defense () =
  let look = lookup_of ?jobs (nbench_specs ~defense) in
  List.map (fun name -> (name, nrm look ("nbench:" ^ name))) (nbench_names ())

let nbench_slowest_of look =
  List.fold_left
    (fun acc name -> Float.min acc (nrm look ("nbench:" ^ name)))
    infinity (nbench_names ())

(* The Unixbench pieces; the suite index is their geometric mean, like
   Unixbench's own scoring. *)
let unixbench_parts ~defense =
  [
    ( "dhrystone-like",
      vs "ub:dhry" ~defense (fun d ->
          Harness.single ~defense:d (Guests.nbench ~iters:(nbench_iters / 2) ())) );
    ( "syscall",
      vs "ub:syscall" ~defense (fun d ->
          Harness.single ~defense:d (Guests.syscall_bench ~iters:syscall_iters ())) );
    ( "pipe throughput",
      vs "ub:pipe" ~defense (fun d ->
          Harness.single ~defense:d (Guests.pipe_throughput ~iters:pipe_iters ())) );
    ( "pipe-based ctxsw",
      vs "ub:ctxsw" ~defense (fun d -> ctxsw_spec ~defense:d ~iters:ctxsw_iters) );
    ( "process creation",
      vs "ub:spawn" ~defense (fun d ->
          Harness.single ~defense:d (Guests.spawn_bench ~iters:spawn_iters ())) );
    ( "fs buffer copy",
      vs "ub:fscopy" ~defense (fun d ->
          Harness.single ~defense:d (Guests.fscopy ~passes:fscopy_passes ~size:fscopy_size ())) );
  ]

let unixbench_keys = [ "ub:dhry"; "ub:syscall"; "ub:pipe"; "ub:ctxsw"; "ub:spawn"; "ub:fscopy" ]

let unixbench_pieces_of look =
  List.map2
    (fun (name, _) key -> (name, nrm look key))
    (unixbench_parts ~defense:Defense.unprotected)
    unixbench_keys

let unixbench_pieces ?jobs ~defense () =
  let look = lookup_of ?jobs (List.concat_map snd (unixbench_parts ~defense)) in
  unixbench_pieces_of look

(* --- Fig. 6: Apache 32KB, gzip, nbench, Unixbench under stand-alone split. *)
let fig6 ?obs ?jobs ?(defense = Defense.split_standalone) () =
  let keyed =
    vs "apache" ~defense (fun d ->
        apache_spec ~defense:d ~size:(kb 32) ~requests:apache_requests)
    @ vs "gzip" ~defense (fun d -> gzip_spec ~defense:d ~size:gzip_size)
    @ nbench_specs ~defense
    @ List.concat_map snd (unixbench_parts ~defense)
  in
  let look = lookup_of ?obs ?jobs keyed in
  [
    { x = "Apache (32KB page)"; value = nrm look "apache" };
    { x = "gzip"; value = nrm look "gzip" };
    { x = "nbench (slowest test)"; value = nbench_slowest_of look };
    {
      x = "Unixbench index";
      value = Harness.geomean (List.map snd (unixbench_pieces_of look));
    };
  ]

(* Fig. 7: the contrived stress tests. *)
let fig7 ?obs ?jobs ?(defense = Defense.split_standalone) () =
  let keyed =
    vs "ctxsw" ~defense (fun d -> ctxsw_spec ~defense:d ~iters:ctxsw_iters)
    @ vs "apache1k" ~defense (fun d ->
          apache_spec ~defense:d ~size:(kb 1) ~requests:apache_requests)
  in
  let look = lookup_of ?obs ?jobs keyed in
  [
    { x = "Unixbench pipe-based ctxsw"; value = nrm look "ctxsw" };
    { x = "Apache (1KB page)"; value = nrm look "apache1k" };
  ]

(* Fig. 8: Apache throughput across served page sizes. *)
let fig8 ?obs ?jobs ?(defense = Defense.split_standalone)
    ?(sizes_kb = [ 1; 2; 4; 8; 16; 32; 64; 128 ]) () =
  let keyed =
    List.concat_map
      (fun size_kb ->
        vs (Fmt.str "apache%dk" size_kb) ~defense (fun d ->
            apache_spec ~defense:d ~size:(kb size_kb) ~requests:apache_requests))
      sizes_kb
  in
  let look = lookup_of ?obs ?jobs keyed in
  List.map
    (fun size_kb ->
      { x = Fmt.str "%dKB" size_kb; value = nrm look (Fmt.str "apache%dk" size_kb) })
    sizes_kb

(* Fig. 9: pipe-based context switching with only a fraction of pages
   split, the rest protected by the execute-disable bit. The unprotected
   baseline machine is identical for every fraction, so it runs once. *)
let fig9 ?obs ?jobs ?(fractions = [ 0; 10; 20; 30; 40; 50; 60; 70; 80; 90; 100 ]) () =
  let keyed =
    ("base", ctxsw_spec ~defense:Defense.unprotected ~iters:ctxsw_iters)
    :: List.map
         (fun pct ->
           ( Fmt.str "split%d" pct,
             ctxsw_spec ~defense:(Defense.split_fraction pct) ~iters:ctxsw_iters ))
         fractions
  in
  let look = lookup_of ?obs ?jobs keyed in
  List.map
    (fun pct ->
      {
        x = Fmt.str "%d%%" pct;
        value = Harness.normalized ~baseline:(look "base") (look (Fmt.str "split%d" pct));
      })
    fractions

(* Memory-overhead ablation: the prototype's eager splitting doubles the
   resident image; demand paging (§5.1's proposed optimization) only
   duplicates touched pages. *)
let memory_overhead ?jobs () =
  let image = Guests.sparse ~data_pages:32 ~touch_pages:2 () in
  match
    Harness.run_fleet_exn ?jobs
      [
        Harness.single ~label:"sparse/unprot" ~eager:true ~defense:Defense.unprotected image;
        Harness.single ~label:"sparse/eager" ~eager:true ~defense:Defense.split_standalone
          image;
        Harness.single ~label:"sparse/demand" ~defense:Defense.split_standalone image;
      ]
  with
  | [ unprot; eager; demand ] ->
    (unprot.peak_frames, eager.peak_frames, demand.peak_frames)
  | _ -> assert false

(* ITLB-load-method ablation: the paper's surprising §4.2.4 finding that a
   ret-gadget ITLB load is slower than single-stepping. With the cache
   timing model enabled, the slowdown emerges mechanistically: each gadget
   plant/restore is a store into a cached instruction line, paying the
   coherency invalidation + pipeline flush. *)
let itlb_method_ablation ?jobs ?(iters = 250) () =
  let spec_of itlb_load name =
    Harness.spec ~label:("itlb-" ^ name)
      ~protection:(Split_memory.protection ~itlb_load ())
      ~caches:true
      ~wiring:(Harness.Pipeline { capacity = None })
      ~defense:Defense.split_standalone
      [ Harness.guest (Guests.ctxsw_ping ~iters ()); Harness.guest (Guests.ctxsw_pong ()) ]
  in
  match
    Harness.run_fleet_exn ?jobs
      [ spec_of Split_memory.Single_step "single-step";
        spec_of Split_memory.Ret_gadget "ret-gadget" ]
  with
  | [ single_step; ret_gadget ] -> (single_step.cycles, ret_gadget.cycles)
  | _ -> assert false

(* All three implementation mechanisms of the split architecture, on the
   context-switch stress test, each normalized to the stock kernel on its
   own hardware: the software x86 exploit (Algorithms 1-2), the §4.7
   software-TLB port, and the §3.3.1 dual-pagetable hardware. *)
let mechanisms_ablation ?jobs ?(iters = ctxsw_iters) () =
  let rows =
    [
      ("x86 tlb-desync (software patch)", Defense.unprotected, Defense.split_standalone);
      ("soft-tlb port (S4.7)", Defense.unprotected_soft_tlb, Defense.split_soft_tlb);
      ("dual-CR3 hardware (S3.3.1)", Defense.unprotected, Defense.split_dual_cr3);
    ]
  in
  let keyed =
    List.concat_map
      (fun (name, base, prot) ->
        [
          (name ^ "|base", ctxsw_spec ~defense:base ~iters);
          (name ^ "|prot", ctxsw_spec ~defense:prot ~iters);
        ])
      rows
  in
  let look = lookup_of ?jobs keyed in
  List.map (fun (name, _, _) -> (name, nrm look name)) rows

let soft_tlb_ablation ?jobs ?(iters = ctxsw_iters) () =
  match mechanisms_ablation ?jobs ~iters () with
  | (_, desync) :: (_, soft) :: _ -> (desync, soft)
  | _ -> assert false

(* Design-space sweep: how the stand-alone overhead depends on TLB reach.
   Larger TLBs do not help — every context switch flushes them, and it is
   the refill (a trap per split page) that costs; the sweep demonstrates
   the overhead is flush-driven, not capacity-driven. *)
let tlb_capacity_sweep ?jobs ?(capacities = [ 8; 16; 32; 64; 128 ]) ?(iters = 150) () =
  let spec_of cap defense =
    Harness.spec
      ~label:(Fmt.str "tlb%d" cap)
      ~itlb_capacity:cap ~dtlb_capacity:cap
      ~wiring:(Harness.Pipeline { capacity = None })
      ~defense
      [ Harness.guest (Guests.ctxsw_ping ~iters ()); Harness.guest (Guests.ctxsw_pong ()) ]
  in
  let keyed =
    List.concat_map
      (fun cap ->
        [
          (Fmt.str "tlb%d|base" cap, spec_of cap Defense.unprotected);
          (Fmt.str "tlb%d|prot" cap, spec_of cap Defense.split_standalone);
        ])
      capacities
  in
  let look = lookup_of ?jobs keyed in
  List.map (fun cap -> (cap, nrm look (Fmt.str "tlb%d" cap))) capacities
