let stop_name : Kernel.Os.stop_reason -> string = function
  | All_exited -> "all_exited"
  | All_blocked -> "all_blocked"
  | Fuel_exhausted -> "fuel_exhausted"

(* [digest add] renders items into a buffer with [add] and digests the
   text. *)
let digest add =
  let b = Buffer.create 4096 in
  add b;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Resident entries oldest first: two TLBs with the same digest evict the
   same victims from here on. *)
let tlb_line tlb =
  let entry b (vpn, w) =
    let bit m = w land m <> 0 in
    Printf.bprintf b "%x>%x %b%b%b;" vpn (Hw.Tlb.frame_of_word w) (bit Hw.Tlb.pte_user)
      (bit Hw.Tlb.pte_writable) (bit Hw.Tlb.pte_nx)
  in
  Fmt.str "%a entries=%s" Hw.Tlb.pp_stats tlb
    (digest (fun b -> List.iter (entry b) (Hw.Tlb.export tlb).s_entries))

(* Each process's trail ring as the dispatch loop wrote it, with its
   position. *)
let add_trail b (p : Kernel.Proc.t) =
  Printf.bprintf b "%d@%d:" p.pid p.trail.pos;
  Array.iter (Printf.bprintf b " %d") p.trail.ring;
  Buffer.add_char b '\n'

let observe os stop =
  let c = Kernel.Os.cost os and mmu = Kernel.Os.mmu os in
  let b = Buffer.create 1024 in
  let line fmt = Fmt.kstr (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "stop: %s" (stop_name stop);
  line "cycles: %d" c.cycles;
  line "insns: %d" c.insns;
  line "traps: %d" c.traps;
  line "split_faults: %d" c.split_faults;
  line "single_steps: %d" c.single_steps;
  line "syscalls: %d" c.syscalls;
  line "ctx_switches: %d" c.ctx_switches;
  line "events:";
  List.iter
    (fun e -> line "  %s" (Fmt.str "%a" Kernel.Event_log.pp_event e))
    (Kernel.Event_log.to_list (Kernel.Os.log os));
  line "%s" (tlb_line (Hw.Mmu.itlb mmu));
  line "%s" (tlb_line (Hw.Mmu.dtlb mmu));
  line "trails: %s" (digest (fun b -> List.iter (add_trail b) (Kernel.Os.procs os)));
  Buffer.contents b

type report = { at : int; checkpoint : Snapshot.t option; reference : string; resumed : string }

let ok r = Option.is_some r.checkpoint && r.reference = r.resumed

type rider = { snapshot : unit -> Snapshot.t; show : unit -> string }

let finish ~fuel os rider =
  let stop = Kernel.Os.run ~fuel os in
  observe os stop ^ rider.show ()

let bare os _ = { snapshot = (fun () -> Snapshot.checkpoint os); show = (fun () -> "") }

let check ?(at = 300) ?(fuel = 2_000_000) ?(ride = bare) start =
  let os = start () in
  let rider = ride os None in
  let snap = ref None in
  (Kernel.Os.probe os).boundary <-
    Some
      (fun () ->
        if Option.is_none !snap && (Kernel.Os.cost os).insns >= at then
          snap := Some (rider.snapshot ()));
  let reference = finish ~fuel os rider in
  match !snap with
  (* a checkpoint at the run's last cycle resumes nothing: not mid-run *)
  | Some snap when Snapshot.cycle snap < (Kernel.Os.cost os).cycles ->
    let os' = start () in
    (* through the wire format, so every replay also checks the codec *)
    let wire = Snapshot.decode (Snapshot.encode snap) in
    Snapshot.restore os' wire;
    let resumed = finish ~fuel os' (ride os' (Some wire)) in
    { at; checkpoint = Some snap; reference; resumed }
  | Some _ | None -> { at; checkpoint = None; reference; resumed = "" }

let pp ppf r =
  let lines = String.split_on_char '\n' in
  let rec first_diff i = function
    | a :: ta, b :: tb when a = b -> first_diff (i + 1) (ta, tb)
    | a :: _, b :: _ -> Some (i, a, b)
    | a :: _, [] -> Some (i, a, "<missing>")
    | [], b :: _ -> Some (i, "<missing>", b)
    | [], [] -> None
  in
  match r.checkpoint with
  | None ->
    Fmt.pf ppf "replay FAILED: the run ended before a scheduler boundary past %d instructions"
      r.at
  | Some snap -> (
    let cycle = Snapshot.cycle snap in
    match first_diff 1 (lines r.reference, lines r.resumed) with
    | None ->
      Fmt.pf ppf "replay OK: checkpoint@%d cycles, %d observation lines identical" cycle
        (List.length (lines r.reference) - 1)
    | Some (i, a, b) ->
      Fmt.pf ppf "replay DIVERGED: checkpoint@%d cycles, line %d: reference %S, resumed %S"
        cycle i a b)
