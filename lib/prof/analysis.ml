(* Deriving the profiler's reports from a sample list. Every function here
   is a pure fold over samples with deterministic (sorted) output order,
   so a report is byte-identical for identical sample streams — which is
   what lets the determinism harness's grid tier compare -j 1 with -j 4,
   and a run be compared with its snapshot replay. *)

type wset_point = { window : int; win_pages : int; win_samples : int }
(* [window] is the absolute window index (cycle / window_size): anchoring
   windows to absolute cycle numbers, not to the first sample, keeps the
   curve identical whether the stream was collected in one run or across
   a checkpoint/restore. *)

type page_stat = {
  pg_pid : int;
  pg_vpn : int;
  pg_samples : int;
  pg_fetches : int;
  pg_hits : int;
  pg_split : bool;  (* split at any sampled point of its lifetime *)
  pg_first : int;
  pg_last : int;
}

let key pid vpn = (pid lsl 24) lor vpn

(* --- per-page statistics ------------------------------------------------- *)

let page_stats (samples : Sampler.sample list) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s : Sampler.sample) ->
      let k = key s.pid s.vpn in
      match Hashtbl.find_opt tbl k with
      | None ->
        Hashtbl.add tbl k
          {
            pg_pid = s.pid;
            pg_vpn = s.vpn;
            pg_samples = 1;
            pg_fetches = (if s.access = Hw.Mmu.Fetch then 1 else 0);
            pg_hits = (if s.tlb_hit then 1 else 0);
            pg_split = s.split_page;
            pg_first = s.cycle;
            pg_last = s.cycle;
          }
      | Some st ->
        Hashtbl.replace tbl k
          {
            st with
            pg_samples = st.pg_samples + 1;
            pg_fetches = (st.pg_fetches + if s.access = Hw.Mmu.Fetch then 1 else 0);
            pg_hits = (st.pg_hits + if s.tlb_hit then 1 else 0);
            pg_split = st.pg_split || s.split_page;
            pg_last = s.cycle;
          })
    samples;
  Hashtbl.fold (fun _ st acc -> st :: acc) tbl []
  |> List.sort (fun a b -> compare (a.pg_pid, a.pg_vpn) (b.pg_pid, b.pg_vpn))

(* --- working set --------------------------------------------------------- *)

let working_set ~window_size (samples : Sampler.sample list) =
  if window_size <= 0 then invalid_arg "Analysis.working_set: window_size";
  let windows = Hashtbl.create 16 in
  List.iter
    (fun (s : Sampler.sample) ->
      let w = s.cycle / window_size in
      let pages, count =
        match Hashtbl.find_opt windows w with
        | Some pc -> pc
        | None ->
          let pc = (Hashtbl.create 16, ref 0) in
          Hashtbl.add windows w pc;
          pc
      in
      incr count;
      Hashtbl.replace pages (key s.pid s.vpn) ())
    samples;
  Hashtbl.fold
    (fun w (pages, count) acc ->
      { window = w; win_pages = Hashtbl.length pages; win_samples = !count } :: acc)
    windows []
  |> List.sort (fun a b -> compare a.window b.window)

(* --- ranking ------------------------------------------------------------- *)

let hot_pages ?(top = 10) samples =
  let ranked =
    List.sort
      (fun a b ->
        (* most-sampled first; pid/vpn break ties deterministically *)
        compare (-a.pg_samples, a.pg_pid, a.pg_vpn) (-b.pg_samples, b.pg_pid, b.pg_vpn))
      (page_stats samples)
  in
  List.filteri (fun i _ -> i < top) ranked

let hot_split_pages ?(top = 10) samples =
  let ranked =
    List.filter (fun st -> st.pg_split) (page_stats samples)
    |> List.sort (fun a b ->
           compare (-a.pg_samples, a.pg_pid, a.pg_vpn) (-b.pg_samples, b.pg_pid, b.pg_vpn))
  in
  List.filteri (fun i _ -> i < top) ranked

(* --- heatmap grid -------------------------------------------------------- *)

(* One row per pid, [buckets] columns spanning the sampled vpn range. *)
let heatmap_grid ?(buckets = 64) (samples : Sampler.sample list) =
  match samples with
  | [] -> ([], 0, 0, 1)
  | first :: _ ->
    let lo = ref first.Sampler.vpn and hi = ref first.Sampler.vpn in
    List.iter
      (fun (s : Sampler.sample) ->
        if s.vpn < !lo then lo := s.vpn;
        if s.vpn > !hi then hi := s.vpn)
      samples;
    let span = !hi - !lo + 1 in
    let buckets = min buckets span in
    let per_bucket = (span + buckets - 1) / buckets in
    let rows = Hashtbl.create 8 in
    List.iter
      (fun (s : Sampler.sample) ->
        let cells =
          match Hashtbl.find_opt rows s.pid with
          | Some cells -> cells
          | None ->
            let cells = Array.make buckets 0 in
            Hashtbl.add rows s.pid cells;
            cells
        in
        let b = (s.vpn - !lo) / per_bucket in
        cells.(b) <- cells.(b) + 1)
      samples;
    let rows =
      Hashtbl.fold (fun pid cells acc -> (pid, cells) :: acc) rows []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    (rows, !lo, !hi, per_bucket)

(* --- rendering ----------------------------------------------------------- *)

let summary_line (samples : Sampler.sample list) sampler =
  let n = List.length samples in
  let hits = List.length (List.filter (fun (s : Sampler.sample) -> s.tlb_hit) samples) in
  let split = List.length (List.filter (fun (s : Sampler.sample) -> s.split_page) samples) in
  Fmt.str
    "profile: rate=1/%d translations=%d samples=%d (dropped %d) sampled-hit=%s split=%s\n"
    (Sampler.rate sampler) (Sampler.seen sampler) n (Sampler.dropped sampler)
    (Report.percent_opt
       (if n = 0 then None else Some (float_of_int hits /. float_of_int n)))
    (Report.percent_opt
       (if n = 0 then None else Some (float_of_int split /. float_of_int n)))

let render_working_set ?(window_size = 200_000) samples =
  let points = working_set ~window_size samples in
  let rows =
    List.map
      (fun p ->
        [
          string_of_int (p.window * window_size);
          string_of_int p.win_pages;
          string_of_int p.win_samples;
        ])
      points
  in
  Report.table
    ~title:(Fmt.str "working set (unique sampled pages per %d-cycle window)" window_size)
    ~header:[ "window_start"; "pages"; "samples" ]
    rows

let render_persistence ?(top = 12) samples =
  let pages =
    List.sort
      (fun a b ->
        compare
          (-(a.pg_last - a.pg_first), a.pg_pid, a.pg_vpn)
          (-(b.pg_last - b.pg_first), b.pg_pid, b.pg_vpn))
      (page_stats samples)
  in
  let pages = List.filteri (fun i _ -> i < top) pages in
  let rows =
    List.map
      (fun st ->
        [
          string_of_int st.pg_pid;
          Fmt.str "0x%05x" st.pg_vpn;
          string_of_int st.pg_first;
          string_of_int st.pg_last;
          string_of_int (st.pg_last - st.pg_first);
          string_of_int st.pg_samples;
          (if st.pg_split then "yes" else "no");
        ])
      pages
  in
  Report.table
    ~title:"page persistence (longest-resident sampled pages)"
    ~header:[ "pid"; "vpn"; "first"; "last"; "span"; "samples"; "split" ]
    rows

let render_hot ?(top = 10) samples =
  let rows =
    List.map
      (fun st ->
        [
          string_of_int st.pg_pid;
          Fmt.str "0x%05x" st.pg_vpn;
          string_of_int st.pg_samples;
          string_of_int st.pg_fetches;
          Report.percent_opt
            (if st.pg_samples = 0 then None
             else Some (float_of_int st.pg_hits /. float_of_int st.pg_samples));
          (if st.pg_split then "yes" else "no");
        ])
      (hot_pages ~top samples)
  in
  Report.table ~title:"hot pages (by sample count)"
    ~header:[ "pid"; "vpn"; "samples"; "fetches"; "tlb-hit"; "split" ]
    rows

let render_heatmap ?buckets samples =
  let rows, lo, hi, per_bucket = heatmap_grid ?buckets samples in
  match rows with
  | [] -> "heatmap: no samples\n"
  | _ ->
    Report.heatmap
      ~title:
        (Fmt.str "pid x vpn heatmap (vpn 0x%05x..0x%05x, %d page(s)/column)" lo hi
           per_bucket)
      ~xlabel:(Fmt.str "vpn ->")
      ~rows:(List.map (fun (pid, cells) -> (Fmt.str "pid %d" pid, cells)) rows)

let csv_heatmap ?buckets samples =
  let rows, lo, _, per_bucket = heatmap_grid ?buckets samples in
  let body =
    List.concat_map
      (fun (pid, cells) ->
        List.filter_map
          (fun i ->
            if cells.(i) = 0 then None
            else
              Some
                [
                  string_of_int pid;
                  string_of_int (lo + (i * per_bucket));
                  string_of_int (lo + ((i + 1) * per_bucket) - 1);
                  string_of_int cells.(i);
                ])
          (List.init (Array.length cells) Fun.id))
      rows
  in
  Report.csv ~header:[ "pid"; "vpn_lo"; "vpn_hi"; "samples" ] body
