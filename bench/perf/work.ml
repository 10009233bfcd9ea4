(* The four benchmark workloads. Each one splits into a setup phase (image
   assembly and signing, load schedules, [Harness.build]) and a run phase
   that drives the built machines through [Kernel.Sched.run ~table], so
   the two are timed apart. Everything runs on the calling domain.

   A probe decides what the run sees: the stock syscall table and
   protection, or (traced) a fresh table whose handlers wrap the stock
   ones and a protection record whose hooks wrap the defense's, each
   wrapper recording a host-time span. Nothing under lib/ is modified. *)

module H = Workload.Harness
module G = Workload.Guests

type probe = { table : Kernel.Syscalls.table; spans : Span.t option }

let plain () = { table = Kernel.Syscalls.default (); spans = None }

let syscall_group = function
  | ("read" | "write" | "nanosleep") as n -> "syscalls." ^ n
  | _ -> "syscalls.other"

let traced sp =
  let stock = Kernel.Syscalls.default () in
  let table = Kernel.Syscalls.create () in
  List.iter
    (fun n ->
      match Kernel.Syscalls.find stock n with
      | None -> ()
      | Some e ->
        let id = Span.id sp (syscall_group e.name) in
        Kernel.Syscalls.register table n ~name:e.name (fun m p ->
            Span.wrap sp id (e.handler m) p))
    (Kernel.Syscalls.numbers stock);
  { table; spans = Some sp }

(* Algorithm 1 is the protection-fault hook, Algorithm 2 the debug-trap
   hook; [map] is the loader/demand-pager hook that splits fresh pages. *)
let wrap_protection sp (p : Kernel.Protection.t) =
  let alg1 = Span.id sp "split_memory.alg1"
  and alg2 = Span.id sp "split_memory.alg2"
  and map = Span.id sp "split_memory.map" in
  {
    p with
    on_page_mapped =
      (fun ctx proc region pte ->
        Span.wrap sp map (fun () -> p.on_page_mapped ctx proc region pte) ());
    on_protection_fault =
      (fun ctx proc f -> Span.wrap sp alg1 (p.on_protection_fault ctx proc) f);
    on_debug_trap = (fun ctx proc -> Span.wrap sp alg2 (p.on_debug_trap ctx) proc);
  }

let timed probe name f x =
  match probe.spans with None -> f x | Some sp -> Span.wrap sp (Span.id sp name) f x

let build probe (s : H.spec) =
  match probe.spans with
  | None -> H.build s
  | Some sp ->
    let stock =
      match s.protection with Some p -> p | None -> Defense.to_protection s.defense
    in
    H.build { s with protection = Some (wrap_protection sp stock) }

(* --- counters ------------------------------------------------------------ *)

let counter_names =
  [|
    "cost.cycles"; "cost.insns"; "cost.traps"; "cost.split_faults"; "cost.single_steps";
    "cost.syscalls"; "cost.ctx_switches"; "tlb.itlb.hits"; "tlb.itlb.misses";
    "tlb.itlb.flushes"; "tlb.itlb.evictions"; "tlb.dtlb.hits"; "tlb.dtlb.misses";
    "tlb.dtlb.flushes"; "tlb.dtlb.evictions"; "bbcache.hits"; "bbcache.misses";
    "bbcache.invalidations"; "bbcache.blocks_built"; "bbcache.insns_built";
  |]

let counter k name =
  let rec go i = if counter_names.(i) = name then k.(i) else go (i + 1) in
  go 0

(* Public statistics of one machine, in [counter_names] order. *)
let counters (k : Kernel.Os.t) =
  let c = Kernel.Os.cost k in
  let tlb t =
    let s = Hw.Tlb.stats t in
    [ s.hits; s.misses; s.flushes; s.evictions ]
  in
  let bb =
    match Kernel.Os.bbcache k with
    | None -> [ 0; 0; 0; 0; 0 ]
    | Some b ->
      let s = Hw.Bbcache.stats b in
      [ s.hits; s.misses; s.invalidations; s.blocks_built; s.insns_built ]
  in
  Array.of_list
    ([ c.cycles; c.insns; c.traps; c.split_faults; c.single_steps; c.syscalls; c.ctx_switches ]
    @ tlb (Hw.Mmu.itlb (Kernel.Os.mmu k))
    @ tlb (Hw.Mmu.dtlb (Kernel.Os.mmu k))
    @ bb)

let log_digest k =
  Digest.string (Marshal.to_string (Kernel.Event_log.to_list (Kernel.Os.log k)) [])

(* --- one rep ------------------------------------------------------------- *)

type rep = {
  insns : int;  (* simulated instructions retired in the run phase *)
  stats : int array;  (* counter deltas over the run phase, summed over machines *)
  peak_frames : int;
  logs : string;  (* digest of every machine's final event log *)
  cycles : int list;  (* per scored machine, for the normalized-performance ratio *)
  checks : (string * bool) list;
  sim : (string * string * float) list;  (* workload-specific simulated outcomes *)
  blobs : int list;  (* encoded size of each checkpoint taken in the run *)
  final : Kernel.Os.t;  (* the last machine run *)
}

(* Run one built (or restored) machine to the end; its counters are
   accounted from where it starts. *)
let run_machine probe k ~fuel =
  let before = counters k in
  let stop =
    timed probe "sched.run" (Kernel.Sched.run ~fuel ~table:probe.table) (Kernel.Os.machine k)
  in
  ( stop = Kernel.Sched.All_exited,
    Array.map2 ( - ) (counters k) before,
    Kernel.Frame_alloc.peak_in_use (Kernel.Os.alloc k) )

let rep_of ?(checks = []) ?(sim = []) ?(blobs = []) ~label runs machines ~scored =
  let stats =
    List.fold_left (fun acc (_, d, _) -> Array.map2 ( + ) acc d)
      (Array.make (Array.length counter_names) 0)
      runs
  in
  {
    insns = counter stats "cost.insns";
    stats;
    peak_frames = List.fold_left (fun acc (_, _, p) -> max acc p) 0 runs;
    logs = String.concat "" (List.map log_digest machines);
    cycles = List.map (fun k -> (Kernel.Os.cost k).cycles) scored;
    checks =
      List.mapi (fun i (ok, _, _) -> (Printf.sprintf "%s#%d ends All_exited" label i, ok)) runs
      @ checks;
    sim;
    blobs;
    final = List.nth machines (List.length machines - 1);
  }

(* --- workloads ----------------------------------------------------------- *)

type t = {
  name : string;
  paper : float option;  (* the paper's normalized performance, where it has one *)
  setup : defense:Defense.t -> probe -> unit -> rep;
      (* build the machines; the returned closure is the run phase *)
}

(* Seed-derived input sizes: [base] plus up to [base/spread]. *)
let jitter rng base spread = base + Serve.Loadgen.Prng.int rng (max 1 (base / spread))

(* The four nbench kernels, one single-process machine each. *)
let compute ~smoke ~seed =
  let scale = if smoke then 1 else 12 in
  let rng = Serve.Loadgen.Prng.make seed in
  let n_num = jitter rng 128 16 and n_str = jitter rng 768 16 and n_fft = jitter rng 256 16 in
  let iters = jitter rng (8 * scale) 16 in
  let setup ~defense probe =
    let images =
      [
        G.numeric_sort ~n:n_num ~rounds:(2 * scale) ();
        G.string_sort ~n:n_str ~rounds:(4 * scale) ();
        G.nbench ~iters ();
        G.fourier ~n:n_fft ~rounds:(12 * scale) ();
      ]
    in
    let specs = List.map (fun img -> H.single ~defense img) images in
    let machines = List.map (build probe) specs in
    fun () ->
      let runs =
        List.map2 (fun (s : H.spec) k -> run_machine probe k ~fuel:s.fuel) specs machines
      in
      rep_of ~label:"compute" runs machines ~scored:machines
  in
  { name = "compute"; paper = Some 0.97; setup }

(* The fig 7 Apache 1 KB server/client pair. *)
let apache1k ~smoke ~seed =
  let rng = Serve.Loadgen.Prng.make seed in
  let requests = jitter rng (if smoke then 200 else 6_000) 16 in
  let setup ~defense probe =
    let s = Workload.Figures.apache_spec ~defense ~size:1024 ~requests in
    let k = build probe s in
    fun () ->
      let run = run_machine probe k ~fuel:s.fuel in
      rep_of ~label:"apache1k" [ run ] [ k ] ~scored:[ k ]
  in
  { name = "apache1k"; paper = Some 0.45; setup }

(* Per-client request clock fed by the syscall tracer, as in
   [Serve.Scenario.run]: a request starts when the client's request write
   returns and ends when the whole response has been read. *)
type client = { mutable started : int; mutable remaining : int }

let latency_tracer k ~resp_size lat =
  let cost = Kernel.Os.cost k in
  let clients = Hashtbl.create 16 in
  List.iter
    (fun (p : Kernel.Proc.t) ->
      if p.name = "serve-client" then Hashtbl.replace clients p.pid { started = 0; remaining = 0 })
    (Kernel.Os.procs k);
  Kernel.Os.set_syscall_tracer k
    (Some
       (fun (tr : Kernel.Machine.syscall_trace) ->
         match Hashtbl.find_opt clients tr.sys_pid with
         | None -> ()
         | Some c -> (
           match (tr.sys_number, tr.sys_outcome) with
           | 4, Kernel.Machine.Returned n when n > 0 && c.remaining <= 0 ->
             c.started <- cost.cycles;
             c.remaining <- resp_size
           | 3, Kernel.Machine.Returned n when n > 0 && c.remaining > 0 ->
             c.remaining <- c.remaining - n;
             if c.remaining <= 0 then begin
               Serve.Latency.record lat (cost.cycles - c.started);
               c.remaining <- 0
             end
           | _ -> ())))

(* A closed-loop serving machine at split memory's knee. *)
let serve ~smoke ~seed =
  let concurrency = if smoke then 4 else 16 and requests = if smoke then 16 else 128 in
  let setup ~defense probe =
    let cfg = Serve.Scenario.config ~defense ~concurrency ~requests ~seed () in
    let s = Serve.Scenario.spec cfg in
    let k = build probe s in
    let lat = Serve.Latency.create ~seed () in
    latency_tracer k ~resp_size:cfg.resp_size lat;
    fun () ->
      let run = run_machine probe k ~fuel:s.fuel in
      let offered = concurrency * requests and completed = Serve.Latency.count lat in
      let cycles = (Kernel.Os.cost k).cycles in
      let sm = Serve.Latency.summary lat in
      let kcyc = function Some v -> float_of_int v /. 1e3 | None -> 0.0 in
      rep_of ~label:"serve" [ run ] [ k ] ~scored:[ k ]
        ~checks:[ ("serve completed == offered", completed = offered) ]
        ~sim:
          [
            ( "serve.req_per_mcyc",
              "req/Mcyc",
              float_of_int completed *. 1e6 /. float_of_int (max 1 cycles) );
            ("serve.lat_p50_kcyc", "kcyc", kcyc sm.p50);
            ("serve.lat_p99_kcyc", "kcyc", kcyc sm.p99);
          ]
  in
  { name = "serve"; paper = None; setup }

(* The fig 7 pipe ctxsw run with a checkpoint every [period] simulated
   cycles, each encoded and decoded; the middle one is restored into a
   fresh machine that runs to the end and must finish identically. *)
let replay ~smoke ~seed =
  let rng = Serve.Loadgen.Prng.make seed in
  let iters = jitter rng (if smoke then 60 else 500) 16 in
  let period = if smoke then 500_000 else 2_000_000 in
  let setup ~defense probe =
    let s = Workload.Figures.ctxsw_spec ~defense ~iters in
    let k = build probe s and fresh = build probe s in
    fun () ->
      let snaps = ref [] and next = ref period in
      let cost = Kernel.Os.cost k in
      Kernel.Os.set_sched_hook k
        (Some
           (fun () ->
             if cost.cycles >= !next then begin
               next := !next + period;
               let snap = timed probe "snap.checkpoint" (fun k -> Snap.Snapshot.checkpoint k) k in
               let blob = timed probe "snap.encode" Snap.Snapshot.encode snap in
               let back = timed probe "snap.decode" Snap.Snapshot.decode blob in
               snaps := (back, String.length blob) :: !snaps
             end));
      let ref_run = run_machine probe k ~fuel:s.fuel in
      Kernel.Os.set_sched_hook k None;
      let snaps = List.rev !snaps in
      let mid, _ = List.nth snaps (List.length snaps / 2) in
      timed probe "snap.restore" (Snap.Snapshot.restore fresh) mid;
      let resumed = run_machine probe fresh ~fuel:s.fuel in
      let same f = f k = f fresh in
      let ck = Kernel.Os.cost in
      rep_of ~label:"replay" [ ref_run; resumed ] [ k; fresh ] ~scored:[ k ]
        ~blobs:(List.map snd snaps)
        ~checks:
          [
            ("replay resumed cycles", same (fun m -> (ck m).cycles));
            ("replay resumed insns", same (fun m -> (ck m).insns));
            ("replay resumed event log", same log_digest);
          ]
  in
  { name = "replay"; paper = Some 0.45; setup }

let all ~smoke ~seed =
  List.map (fun w -> w ~smoke ~seed) [ compute; apache1k; serve; replay ]
