(** Deterministic fault injection with a differential no-fault oracle.

    A {!Plan} ({!module:Plan}) names a {!Snap.Scenario}, a seed, fault
    classes, a trigger window and a budget. {!run_plan} runs the scenario
    twice — once untouched (the fault-free twin), once with the
    {!module:Engine} armed — and compares the two machines bit-for-bit
    (rendered event log, stop reason, cycle counter). {!campaign} fans a
    plan list over the {!Fleet} worker pool with submission-order verdicts,
    so the rendered summary is byte-identical at any [-j].

    Verdicts: [Detected] (a detector fired that the twin didn't see),
    [Masked] (identical event log, no detection — the fault was absorbed),
    [Escaped] (divergence with no detection — what campaigns exist to
    prove impossible), [Clean] (nothing injected, bit-identical run). *)

module Prng = Kernel.Prng
module Plan = Plan
module Engine = Engine

type outcome = Detected | Masked | Escaped | Clean

val outcome_name : outcome -> string

type verdict = {
  v_label : string;
  v_scenario : string;
  v_seed : int;
  v_classes : string;  (** comma-joined fault-class names of the plan *)
  v_outcome : outcome;
  v_injected : int;  (** faults actually injected *)
  v_details : (string * int * string) list;
      (** (class, cycle, target detail) per injected fault, oldest first *)
  v_detections : int;  (** engine-detector firings (guard resyncs + ECC) *)
  v_events_match : bool;  (** event log and stop reason identical to twin *)
  v_cycles_match : bool;
  v_base_cycles : int;
  v_cycles : int;
  v_base_stop : string;
  v_stop : string;
}

val run_plan : ?obs:Obs.t -> Plan.t -> verdict
(** Run one plan and its fault-free twin; classify. [obs] (attached to both
    machines) is for debugging single runs — {!campaign} keeps machines
    unobserved. *)

val campaign : ?obs:Obs.t -> ?jobs:int -> Plan.t list -> verdict list
(** Fan plans over the fleet, verdicts in submission order. [obs] records
    fleet metrics only. A crashed plan raises [Failure] — a campaign must
    never silently drop a run. *)

val default_plans : ?seed:int -> unit -> Plan.t list
(** The CI campaign: one single-class plan per fault class on ["benign"],
    plus the split-bookkeeping classes on ["attack-break"] (12 plans). *)

val reuse_plans : ?seed:int -> unit -> Plan.t list
(** The code-reuse extension: the split-bookkeeping classes against the
    ["reuse-*"] scenarios (escaping ROP under split alone, CFI-detected
    reuse), 12 plans — the oracle over the defense x attack matrix. *)

val escaped : verdict list -> verdict list
val tally : verdict list -> int * int * int * int
(** (detected, masked, escaped, clean). *)

val summary_string : verdict list -> string

(** {2 Snapshot integration}

    An interrupted campaign run checkpoints through {!checkpoint} (the
    injector state rides in snapshot metadata); restoring the snapshot
    and calling {!rearm} resumes mid-plan and reaches the same verdict. *)

val checkpoint : Kernel.Os.t -> Engine.t -> Snap.Snapshot.t
val rearm : Kernel.Os.t -> Snap.Snapshot.t -> Engine.t
(** Call after {!Snap.Snapshot.restore} on the restored machine.
    @raise Invalid_argument if the snapshot carries no injector state.
    @raise Snap.Codec.Corrupt, leaving the machine untouched, if that
    state does not decode. *)
