type counter = { c_name : string; mutable count : int }
type gauge = { g_name : string; mutable value : float }

type histogram = {
  h_name : string;
  mutable n : int;
  mutable sum : int;
  mutable vmin : int;
  mutable vmax : int;
  buckets : int array;  (* power-of-two buckets, see bucket_of *)
}

type labeled = { l_name : string; cells : (string, int ref) Hashtbl.t }

type item =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram
  | Labeled of labeled

type registry = {
  mutable rev_items : item list;  (* reverse creation order *)
  index : (string, item) Hashtbl.t;
}

let create () = { rev_items = []; index = Hashtbl.create 32 }

let add_item reg name item =
  Hashtbl.replace reg.index name item;
  reg.rev_items <- item :: reg.rev_items

let counter reg name =
  match Hashtbl.find_opt reg.index name with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg (Printf.sprintf "Metrics: %S is not a counter" name)
  | None ->
    let c = { c_name = name; count = 0 } in
    add_item reg name (Counter c);
    c

let gauge reg name =
  match Hashtbl.find_opt reg.index name with
  | Some (Gauge g) -> g
  | Some _ -> invalid_arg (Printf.sprintf "Metrics: %S is not a gauge" name)
  | None ->
    let g = { g_name = name; value = 0.0 } in
    add_item reg name (Gauge g);
    g

let histogram reg name =
  match Hashtbl.find_opt reg.index name with
  | Some (Histogram h) -> h
  | Some _ -> invalid_arg (Printf.sprintf "Metrics: %S is not a histogram" name)
  | None ->
    let h =
      { h_name = name; n = 0; sum = 0; vmin = max_int; vmax = min_int;
        buckets = Array.make 63 0 }
    in
    add_item reg name (Histogram h);
    h

let labeled reg name =
  match Hashtbl.find_opt reg.index name with
  | Some (Labeled l) -> l
  | Some _ -> invalid_arg (Printf.sprintf "Metrics: %S is not labeled" name)
  | None ->
    let l = { l_name = name; cells = Hashtbl.create 16 } in
    add_item reg name (Labeled l);
    l

let incr ?(by = 1) c = c.count <- c.count + by
let set_gauge g v = g.value <- v

(* Bucket 0 holds values <= 0; bucket k (k >= 1) holds [2^(k-1), 2^k). *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let bits = ref 0 in
    let v = ref v in
    while !v > 0 do
      bits := !bits + 1;
      v := !v lsr 1
    done;
    min !bits 62
  end

let bucket_bounds k = if k = 0 then (0, 0) else (1 lsl (k - 1), 1 lsl k)

let observe h v =
  h.n <- h.n + 1;
  h.sum <- h.sum + v;
  if v < h.vmin then h.vmin <- v;
  if v > h.vmax then h.vmax <- v;
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1

let mean h = if h.n = 0 then 0.0 else float_of_int h.sum /. float_of_int h.n

let nonzero_buckets h =
  let acc = ref [] in
  for k = Array.length h.buckets - 1 downto 0 do
    if h.buckets.(k) > 0 then begin
      let lo, hi = bucket_bounds k in
      acc := (lo, hi, h.buckets.(k)) :: !acc
    end
  done;
  !acc

let incr_label ?(by = 1) l key =
  match Hashtbl.find_opt l.cells key with
  | Some r -> r := !r + by
  | None -> Hashtbl.replace l.cells key (ref by)

(* Descending by count, ties broken by key for determinism. *)
let label_cells l =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) l.cells []
  |> List.sort (fun (ka, va) (kb, vb) ->
         match compare vb va with 0 -> compare ka kb | c -> c)

(* Detached instruments: well-formed, but registered nowhere. The disabled
   [Obs] sink hands these out so instrumentation wired to [Obs.null] never
   mutates shared state — a requirement for running machines on multiple
   domains (lib/fleet). *)
let detached_counter name = { c_name = name; count = 0 }

let detached_histogram name =
  { h_name = name; n = 0; sum = 0; vmin = max_int; vmax = min_int;
    buckets = Array.make 63 0 }

let detached_labeled name = { l_name = name; cells = Hashtbl.create 4 }

let items reg = List.rev reg.rev_items

let counters reg =
  List.filter_map (function Counter c -> Some (c.c_name, c.count) | _ -> None) (items reg)

let gauges reg =
  List.filter_map (function Gauge g -> Some (g.g_name, g.value) | _ -> None) (items reg)

let histograms reg =
  List.filter_map (function Histogram h -> Some h | _ -> None) (items reg)

let labeled_sets reg =
  List.filter_map
    (function Labeled l -> Some (l.l_name, label_cells l) | _ -> None)
    (items reg)

(* Fold [src] into [into], matching items by name in [src]'s creation
   order: counters and histograms accumulate, gauges take [src]'s value
   (last write wins, like sequential snapshotting), labeled cells add up.
   Deterministic given a deterministic [src] — labeled cells are visited in
   sorted order so [into]'s internal state is reproducible too. *)
let merge ~into src =
  let merge_histogram (dst : histogram) (h : histogram) =
    if h.n > 0 then begin
      dst.n <- dst.n + h.n;
      dst.sum <- dst.sum + h.sum;
      if h.vmin < dst.vmin then dst.vmin <- h.vmin;
      if h.vmax > dst.vmax then dst.vmax <- h.vmax;
      Array.iteri (fun k c -> dst.buckets.(k) <- dst.buckets.(k) + c) h.buckets
    end
  in
  List.iter
    (function
      | Counter c -> incr ~by:c.count (counter into c.c_name)
      | Gauge g -> set_gauge (gauge into g.g_name) g.value
      | Histogram h -> merge_histogram (histogram into h.h_name) h
      | Labeled l ->
        let dst = labeled into l.l_name in
        List.iter
          (fun (key, v) -> incr_label ~by:v dst key)
          (List.sort compare
             (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) l.cells [])))
    (items src)

let histogram_to_json h =
  Json.Obj
    [
      ("count", Json.Int h.n);
      ("sum", Json.Int h.sum);
      ("min", Json.Int (if h.n = 0 then 0 else h.vmin));
      ("max", Json.Int (if h.n = 0 then 0 else h.vmax));
      ("mean", Json.Float (mean h));
      ( "buckets",
        Json.List
          (List.map
             (fun (lo, hi, c) ->
               Json.Obj
                 [ ("lo", Json.Int lo); ("hi", Json.Int hi); ("count", Json.Int c) ])
             (nonzero_buckets h)) );
    ]

let to_json reg =
  let one = function
    | Counter c -> (c.c_name, Json.Int c.count)
    | Gauge g -> (g.g_name, Json.Float g.value)
    | Histogram h -> (h.h_name, histogram_to_json h)
    | Labeled l ->
      (l.l_name, Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (label_cells l)))
  in
  Json.Obj (List.map one (items reg))
