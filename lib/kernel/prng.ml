(* splitmix64: one int64 of state, so a cursor is one codec field, and a
   stream that is stable across OCaml versions (verdicts, stack jitter and
   load schedules are golden-tested). *)

type t = { mutable s : int64 }

let gamma = 0x9E3779B97F4A7C15L

let make seed = { s = Int64.mul (Int64.of_int (seed + 1)) gamma }

let next t =
  t.s <- Int64.add t.s gamma;
  let z = t.s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

let state t = t.s
let set_state t s = t.s <- s
