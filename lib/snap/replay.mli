(** Deterministic replay: the one observation of a finished machine and the
    one checkpoint/restore check. A checkpoint taken mid-run and restored
    into a fresh machine must finish with the same observation as the run
    it was taken from, byte for byte. This is the gate that protects the
    simulator's determinism contract (and therefore every cycle-count
    result in the paper reproduction). *)

val stop_name : Kernel.Os.stop_reason -> string
(** ["all_exited"], ["all_blocked"] or ["fuel_exhausted"]. *)

val observe : Kernel.Os.t -> Kernel.Os.stop_reason -> string
(** Everything a run leaves behind that the determinism contract covers,
    one item per line: [stop:], the seven cost counters, [events:] and the
    event log (one indented line per event), then each TLB's statistics
    with a digest of its resident entries in replacement order, then one
    digest over every process's trail ring and ring position. The last
    three lines are fixed in number, whatever the process count. *)

type report = {
  at : int;  (** the instruction count the checkpoint waited for *)
  checkpoint : Snapshot.t option;  (** taken mid-run, else [None] *)
  reference : string;  (** {!observe} of the run the checkpoint came from *)
  resumed : string;  (** {!observe} of the restored run, or [""] *)
}

val ok : report -> bool
(** A checkpoint was taken mid-run and the two observations are identical. *)

(** State beside a machine that must cross the checkpoint with it, such
    as a profiler: [snapshot] checkpoints the machine with that state in
    the metadata, and [show] renders it after the observation. *)
type rider = { snapshot : unit -> Snapshot.t; show : unit -> string }

val check :
  ?at:int ->
  ?fuel:int ->
  ?ride:(Kernel.Os.t -> Snapshot.t option -> rider) ->
  (unit -> Kernel.Os.t) ->
  report
(** [check start] runs a fresh [start ()] with a checkpoint at the first
    scheduler boundary where [at] instructions (default 300) have
    retired, and finishes it: the reference, which is the plain run (the
    checkpoint only reads the machine). Then [decode (encode snap)] is
    restored into a second fresh [start ()], which is finished too. Each
    run is bounded by [fuel] (default 2,000,000). If the run ends before
    such a boundary, or the checkpoint falls on its last cycle, there is
    nothing to resume: the report has no checkpoint and is not {!ok}.
    [ride os None] attaches a rider to the reference machine and [ride
    os' (Some snap)] rearms one on the restored machine; the default
    rider adds nothing. *)

val pp : Format.formatter -> report -> unit
(** One line: [replay OK] with the checkpoint cycle, [replay DIVERGED]
    with the first observation line that differs, or [replay FAILED] when
    no checkpoint was taken mid-run. *)
