(** Deterministic replay: checkpoint mid-run, finish the run, then restore
    the checkpoint and re-run — the event log and every cost counter must
    match the reference run bit-for-bit. This is the regression gate that
    protects the simulator's determinism contract (and therefore every
    cycle-count result in the paper reproduction). *)

type report = {
  checkpoint_cycle : int;  (** cycle at which the snapshot was taken *)
  ref_stop : Kernel.Os.stop_reason;
  replay_stop : Kernel.Os.stop_reason;
  ref_cycles : int;  (** final cycle count of the reference run *)
  replay_cycles : int;
  ref_events : string list;  (** rendered event log, oldest first *)
  replay_events : string list;
  divergence : string option;  (** [None] = bit-for-bit identical *)
}

val ok : report -> bool

val check : ?fuel_to_checkpoint:int -> ?fuel:int -> Kernel.Os.t -> report * Snapshot.t
(** [check os] drives a freshly started machine: run [fuel_to_checkpoint]
    instructions (default 1500), checkpoint, run the rest of the way
    (bounded by [fuel], default 2,000,000) recording the reference outcome,
    then restore the checkpoint into the same machine and re-run. The
    restored copy goes through the wire format ([decode (encode snap)]),
    so a replay checks the codec as well. The returned snapshot is the
    mid-run checkpoint. *)

val pp : Format.formatter -> report -> unit
