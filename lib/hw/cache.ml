type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable flushes : int;
}

type t = {
  name : string;
  line_bits : int;
  lines : int;
  (* direct-mapped: set index -> tag *)
  table : int array;
  stats : stats;
}

let create ?(line_bits = 6) ~name ~lines () =
  if lines <= 0 then invalid_arg "Cache.create: lines must be positive";
  {
    name;
    line_bits;
    lines;
    table = Array.make lines (-1);
    stats = { hits = 0; misses = 0; invalidations = 0; flushes = 0 };
  }

let stats t = t.stats

let line_of t paddr = paddr lsr t.line_bits
let index_of t line = line mod t.lines

(* Access one physical address; returns true on hit. A miss installs the
   line (allocate-on-miss, no writeback modelling needed for timing). *)
let access t paddr =
  let line = line_of t paddr in
  let idx = index_of t line in
  if t.table.(idx) = line then begin
    t.stats.hits <- t.stats.hits + 1;
    true
  end
  else begin
    t.stats.misses <- t.stats.misses + 1;
    t.table.(idx) <- line;
    false
  end

(* Invalidate the line covering [paddr]; returns true if it was cached —
   the case where x86 coherency hardware must also flush the pipeline. *)
let invalidate t paddr =
  let line = line_of t paddr in
  let idx = index_of t line in
  if t.table.(idx) = line then begin
    t.table.(idx) <- -1;
    t.stats.invalidations <- t.stats.invalidations + 1;
    true
  end
  else false

let flush t =
  Array.fill t.table 0 t.lines (-1);
  t.stats.flushes <- t.stats.flushes + 1

let hit_rate_opt t =
  let total = t.stats.hits + t.stats.misses in
  if total = 0 then None else Some (float_of_int t.stats.hits /. float_of_int total)
