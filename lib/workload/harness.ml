type result = {
  label : string;
  defense : string;
  cycles : int;
  insns : int;
  traps : int;
  split_faults : int;
  single_steps : int;
  ctx_switches : int;
  peak_frames : int;
  itlb_misses : int;
  dtlb_misses : int;
}

exception Did_not_finish of string

(* Fleet workers stringify job exceptions with [Printexc.to_string]; give
   the one exception experiments actually raise a readable rendering. *)
let () =
  Printexc.register_printer (function
    | Did_not_finish msg -> Some ("Did_not_finish: " ^ msg)
    | _ -> None)

let snapshot ~label ~defense (k : Kernel.Os.t) =
  let c = Kernel.Os.cost k in
  let mmu = Kernel.Os.mmu k in
  {
    label;
    defense;
    cycles = c.cycles;
    insns = c.insns;
    traps = c.traps;
    split_faults = c.split_faults;
    single_steps = c.single_steps;
    ctx_switches = c.ctx_switches;
    peak_frames = Kernel.Frame_alloc.peak_in_use (Kernel.Os.alloc k);
    itlb_misses = (Hw.Tlb.stats (Hw.Mmu.itlb mmu)).misses;
    dtlb_misses = (Hw.Tlb.stats (Hw.Mmu.dtlb mmu)).misses;
  }

let finish ~label ~defense k ~fuel =
  match Kernel.Os.run ~fuel k with
  | Kernel.Os.All_exited -> snapshot ~label ~defense k
  | Kernel.Os.All_blocked -> raise (Did_not_finish (label ^ ": deadlocked"))
  | Kernel.Os.Fuel_exhausted -> raise (Did_not_finish (label ^ ": fuel exhausted"))

(* --- experiment specs ---------------------------------------------------- *)

type guest = { image : Kernel.Image.t; eager : bool; protected : bool }

type wiring = Isolated | Pipeline of { capacity : int option }

type spec = {
  label : string;
  defense : Defense.t;
  protection : Kernel.Protection.t option;
  frames : int;
  fuel : int;
  quantum : int option;
  seed : int option;
  itlb_capacity : int option;
  dtlb_capacity : int option;
  tlb_policy : Hw.Tlb.policy option;
  caches : bool;
  share_images : bool;
  wiring : wiring;
  guests : guest list;
}

let guest ?(eager = false) ?(protected = true) image = { image; eager; protected }

let spec ?label ?protection ?(frames = 16384) ?(fuel = 100_000_000)
    ?quantum ?seed ?itlb_capacity ?dtlb_capacity ?tlb_policy ?(caches = false)
    ?(share_images = false) ?(wiring = Isolated) ~defense guests =
  let label =
    match (label, guests) with
    | Some l, _ -> l
    | None, g :: _ -> g.image.Kernel.Image.name
    | None, [] -> invalid_arg "Harness.spec: no guests"
  in
  {
    label;
    defense;
    protection;
    frames;
    fuel;
    quantum;
    seed;
    itlb_capacity;
    dtlb_capacity;
    tlb_policy;
    caches;
    share_images;
    wiring;
    guests;
  }

let single ?label ?frames ?fuel ?eager ?protected ?seed ~defense image =
  spec ?label ?frames ?fuel ?seed ~defense [ guest ?eager ?protected image ]

let pair ?label ?frames ?fuel ?capacity ?seed ~defense server client =
  spec ?label ?frames ?fuel ?seed ~wiring:(Pipeline { capacity }) ~defense
    [ guest server; guest client ]

let build ?(obs = Obs.null) s =
  let protection =
    match s.protection with Some p -> p | None -> Defense.to_protection s.defense
  in
  let k =
    Kernel.Os.create ~frames:s.frames ?quantum:s.quantum ?seed:s.seed
      ?itlb_capacity:s.itlb_capacity ?dtlb_capacity:s.dtlb_capacity
      ?tlb_policy:s.tlb_policy ~caches:s.caches ~share_images:s.share_images ~obs
      ~protection ()
  in
  let procs =
    List.map
      (fun g -> Kernel.Os.spawn ~eager:g.eager ~protected:g.protected k g.image)
      s.guests
  in
  (match s.wiring with
  | Isolated -> ()
  | Pipeline { capacity } ->
    let rec wire = function
      | a :: b :: rest ->
        Kernel.Os.connect ?capacity k a b;
        wire rest
      | [ _ ] | [] -> ()
    in
    wire procs);
  k

let run_k ?obs ?tune s =
  let k = build ?obs s in
  Option.iter (fun f -> f k) tune;
  (finish ~label:s.label ~defense:(Defense.name s.defense) k ~fuel:s.fuel, k)

let run ?obs s = fst (run_k ?obs s)

(* --- fleet execution ----------------------------------------------------- *)

(* Each job gets its own machine and its own obs sink (specs never carry an
   [Obs.t]: a sink is mutable and must not be shared across domains). The
   per-job registries are folded into the caller's sink in submission
   order after the workers join, so the aggregate is identical for every
   [jobs] value. *)
let run_fleet ?(obs = Obs.null) ?jobs specs =
  let live = Obs.enabled obs in
  Fleet.map ~obs ?jobs
    ~label:(fun s -> s.label)
    (fun s ->
      let job_obs = if live then Obs.create () else Obs.null in
      (run ~obs:job_obs s, job_obs))
    specs
  |> List.map (function
       | Ok (r, job_obs) ->
         if live then Obs.merge_metrics ~into:obs job_obs;
         Ok r
       | Error (e : Fleet.error) -> Error e)

let run_fleet_exn ?obs ?jobs specs =
  List.map
    (function
      | Ok r -> r
      | Error (e : Fleet.error) -> raise (Did_not_finish (e.label ^ ": " ^ e.reason)))
    (run_fleet ?obs ?jobs specs)

(* Performance relative to the unprotected baseline: >1 never happens in
   practice; 0.9 means "runs at 90% of full speed" as in the paper's
   normalized plots. *)
let normalized ~baseline result = float_of_int baseline.cycles /. float_of_int result.cycles

let geomean values =
  match values with
  | [] -> invalid_arg "Harness.geomean: empty"
  | _ ->
    let logs = List.fold_left (fun acc v -> acc +. log v) 0.0 values in
    exp (logs /. float_of_int (List.length values))
