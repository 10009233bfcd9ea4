(** Reports derived from a profiler sample stream. Pure folds with sorted
    output, so identical streams render byte-identically — the property
    the determinism harness's -j 1 = -j 4 grid cells and the replay
    checks rely on. *)

type wset_point = {
  window : int;  (** absolute window index, [cycle / window_size] *)
  win_pages : int;  (** distinct (pid, vpn) sampled in the window *)
  win_samples : int;
}

type page_stat = {
  pg_pid : int;
  pg_vpn : int;
  pg_samples : int;
  pg_fetches : int;
  pg_hits : int;
  pg_split : bool;  (** split at any sampled point *)
  pg_first : int;  (** cycle of first sample *)
  pg_last : int;  (** cycle of last sample *)
}

val page_stats : Sampler.sample list -> page_stat list
(** Per-(pid, vpn) aggregation, sorted by (pid, vpn). *)

val hot_split_pages : ?top:int -> Sampler.sample list -> page_stat list
(** {!hot_pages} restricted to split pages — the ranking that tells the
    split-page machinery where its service effort lands. *)

(** {2 Rendering} *)

val summary_line : Sampler.sample list -> Sampler.t -> string
val render_working_set : ?window_size:int -> Sampler.sample list -> string
(** Fig-style table; [window_size] default 200k cycles. *)

val render_persistence : ?top:int -> Sampler.sample list -> string
(** Longest-resident pages (by sampled lifetime span). *)

val render_hot : ?top:int -> Sampler.sample list -> string
val render_heatmap : ?buckets:int -> Sampler.sample list -> string
(** ASCII pid x vpn intensity grid. *)

val csv_heatmap : ?buckets:int -> Sampler.sample list -> string
(** The heatmap as CSV ([pid,vpn_lo,vpn_hi,samples], zero cells elided). *)
