(* A hash table over int keys (packed paddrs) for the block cache, which
   sits on the dispatch hot path: monomorphic equality and an inlineable
   hash instead of the polymorphic [compare] and the C [Hashtbl.hash].
   The hash folds bit 12 and up into the low bits, which
   pick the bucket, so the paddrs of blocks at one page offset in
   different frames do not share a bucket. Nothing observable depends on
   bucket order: every listing of a table is sorted. *)
include Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash x = x lxor (x lsr 12)
end)
