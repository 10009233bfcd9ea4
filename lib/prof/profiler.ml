(* Wiring the sample ring into a machine: the MMU's sample hook feeds the
   ring, the scheduler's switch hook keeps pid attribution current, and
   the whole sampler state rides in snapshot metadata so a restored
   machine resumes sampling bit-for-bit where the original would have.

   Overhead discipline mirrors lib/obs: a machine with no profiler
   attached pays one [None] branch per translation and stays on the
   allocation-free MMU fast path; an attached profiler pays a closure
   call per translation and a few int stores per sampled one. *)

type t = {
  sampler : Sampler.t;
  os : Kernel.Os.t;
  mutable cur_aspace : Kernel.Aspace.t option;
}

let sampler t = t.sampler
let samples t = Sampler.samples t.sampler

let set_current t (p : Kernel.Proc.t) =
  Sampler.set_pid t.sampler p.pid;
  t.cur_aspace <- Some p.aspace

(* Classify the sampled page at sample time (not at report time: the
   process may be gone by then). Runs only on sampled translations, so
   the option boxes here are off the unsampled path. *)
let split_now t vpn =
  match t.cur_aspace with
  | None -> false
  | Some aspace -> (
    match Kernel.Aspace.pte aspace vpn with
    | Some pte -> Kernel.Pte.is_split pte
    | None -> false)

let install t =
  let os = t.os in
  let s = t.sampler in
  (* seed attribution: the switch hook only fires when the running pid
     *changes*, so a profiler attached (or rearmed) mid-run must pick up
     the incumbent itself *)
  (match Kernel.Os.last_running os with
  | Some pid -> (
    Sampler.set_pid s pid;
    match Kernel.Os.proc os pid with
    | Some p -> t.cur_aspace <- Some p.aspace
    | None -> ())
  | None -> ());
  (Kernel.Os.probe os).switch <- Some (fun p -> set_current t p);
  let cost = Kernel.Os.cost os in
  (Kernel.Os.env os).Hw.Exec_env.sample <-
    Some
      (fun access vpn tlb_hit ->
        if Sampler.tick s then
          Sampler.record s ~cycle:cost.Hw.Cost.cycles ~vpn ~access ~tlb_hit
            ~split:(split_now t vpn));
  let obs = Kernel.Os.obs os in
  if Obs.enabled obs then begin
    Obs.event obs ~cat:"prof" "prof.attach"
      ~args:[ ("rate", Obs.Json.Int (Sampler.rate s)) ];
    Obs.add_snapshot_hook obs (fun () ->
        let reg = Obs.metrics obs in
        let set name v =
          Obs.Metrics.set_gauge (Obs.Metrics.gauge reg name) (float_of_int v)
        in
        set "prof.rate" (Sampler.rate s);
        set "prof.samples" (Sampler.length s);
        set "prof.dropped" (Sampler.dropped s);
        set "prof.taken" (Sampler.taken s);
        set "prof.translations" (Sampler.seen s))
  end

let attach ?(rate = 64) ?capacity os =
  let t = { sampler = Sampler.create ?capacity ~rate (); os; cur_aspace = None } in
  install t;
  t

let detach t =
  (Kernel.Os.env t.os).Hw.Exec_env.sample <- None;
  (Kernel.Os.probe t.os).switch <- None

(* --- snapshot integration ------------------------------------------------ *)

let meta_state_key = "prof.state"

let meta t = [ (meta_state_key, Sampler.export t.sampler) ]

let checkpoint ?(meta = []) t =
  Snap.Snapshot.checkpoint ~meta:(meta @ [ (meta_state_key, Sampler.export t.sampler) ]) t.os

let rearm os snap =
  match Snap.Snapshot.find_meta snap meta_state_key with
  | None -> None
  | Some state ->
    let t = { sampler = Sampler.import state; os; cur_aspace = None } in
    install t;
    Some t
