(** The deterministic fault-injection engine: arms a plan onto one live
    machine through the explicit hardware/kernel hook points, fires faults
    at scheduler boundaries, and wires up the graceful-degradation
    detectors (TLB-guard desync audit, ECC correct-on-read, OOM
    containment, syscall restart).

    Everything is per-machine state — no globals — so fleets of armed
    machines run concurrently on separate domains. An armed engine whose
    plan never fires (zero budget, unreachable trigger) leaves the run
    bit-identical to an unarmed one: that invariant is the foundation of
    the differential oracle and is property-tested. *)

type injected = {
  i_class : Plan.fault_class;
  i_cycle : int;  (** cycle counter at injection *)
  i_pid : int;  (** pid last running when the fault landed *)
  i_detail : string;  (** human-readable target description *)
}

type t

val arm : Kernel.Os.t -> Plan.t -> t
(** Install the engine on a machine: enables the physical-memory ECC
    shadow, the MMU TLB guard and invlpg hook, the scheduler-boundary
    inject hook and the syscall squeeze. Arm before running the guest. *)

val plan : t -> Plan.t
val injected_count : t -> int
val injected : t -> injected list
(** Oldest first. *)

val detections : t -> int
(** Detector firings (TLB-guard resyncs + ECC corrections) so far. *)

val export : t -> string
(** The injector's resumable state — PRNG cursor, budget spent, next fire
    cycle, pending squeezes/suppressions/denials/flips, the injection
    journal — encoded with {!Snap.Codec} for snapshot metadata. The
    machine-side effects of past faults are in the snapshot itself. *)

val rearm : Kernel.Os.t -> Plan.t -> string -> t
(** {!arm} a machine just restored with {!Snap.Snapshot.restore} and load
    {!export}ed state into the engine, re-marking still-pending frame
    flips in the rebuilt ECC shadow, to resume an interrupted campaign run.
    @raise Snap.Codec.Corrupt, before touching the machine, on malformed
    state or a pending flip outside physical memory. *)
