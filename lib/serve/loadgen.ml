(* Deterministic synthetic traffic: a private [Kernel.Prng] stream drives a
   Zipf page-popularity sampler and per-client request schedules. Every
   schedule is a pure function of (seed, client index, parameters), so a
   sweep renders bit-identically at any fleet width and any repetition —
   the property the serving gate byte-diffs. *)

module Prng = Kernel.Prng

(* Zipf(theta) over ranks 0..n-1 via an integer cumulative-weight table:
   floats touch only the table build (truncated, floored at 1), so
   sampling is pure integer arithmetic on the splitmix64 stream and the
   frequency of rank r is monotone non-increasing in r by construction. *)
module Zipf = struct
  type t = { cum : int array; total : int }

  let scale = float_of_int (1 lsl 20)

  let make ?(theta = 1.0) n =
    if n <= 0 then invalid_arg "Zipf.make: need at least one rank";
    let cum = Array.make n 0 in
    let total = ref 0 in
    for r = 0 to n - 1 do
      let w = max 1 (int_of_float (scale /. (float_of_int (r + 1) ** theta))) in
      total := !total + w;
      cum.(r) <- !total
    done;
    { cum; total = !total }

  let ranks t = Array.length t.cum

  let sample t rng =
    let u = Prng.int rng t.total in
    (* first rank whose cumulative weight exceeds the draw *)
    let lo = ref 0 and hi = ref (Array.length t.cum - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cum.(mid) > u then hi := mid else lo := mid + 1
    done;
    !lo
end

(* --- request schedules --------------------------------------------------- *)

type model =
  | Closed of { think : int }  (* sleep [think]-ish cycles between requests *)
  | Open of { period : int }  (* release a request every [period] cycles *)

let model_name = function Closed _ -> "closed" | Open _ -> "open"

(* The schedule a [Guests.serve_client] replays: one (page byte offset,
   pace) pair per request. Closed-loop paces jitter uniformly in
   [think/2, 3*think/2) so wake-ups spread over the quantum lattice;
   open-loop paces are absolute release cycles on a fixed period with a
   per-client phase in [0, period) desynchronizing the fleet. *)
let schedule ?(theta = 1.0) ?(ws_pages = 8) ~model ~requests ~seed ~client () =
  if requests <= 0 then invalid_arg "Loadgen.schedule: need at least one request";
  let rng = Prng.make ((seed * 0x10001) + (client * 0x101)) in
  let zipf = Zipf.make ~theta ws_pages in
  let phase = match model with Open { period } -> Prng.int rng period | Closed _ -> 0 in
  Array.init requests (fun i ->
      let page = Zipf.sample zipf rng * 4096 in
      let pace =
        match model with
        | Closed { think } ->
          if think <= 0 then 0 else (think / 2) + Prng.int rng (max 1 think)
        | Open { period } -> phase + (i * period)
      in
      (page, pace))

(* Canonical rendering of a schedule, used by the determinism property
   tests ("byte-identical across runs and sweeps") and nothing else. *)
let to_string sched =
  Array.to_list sched
  |> List.map (fun (page, pace) -> Fmt.str "%d:%d" page pace)
  |> String.concat ","
