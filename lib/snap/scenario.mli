(** Canonical checkpointable scenarios.

    Each scenario is fully self-driving: {!start} builds the machine,
    spawns the guest and feeds any attack input up front, so a single
    {!Kernel.Os.run} (or a fuel-sliced sequence of runs with checkpoints in
    between) carries it to completion deterministically. They back the
    scenario goldens, the determinism harness's checkpoint axis (both
    through {!Replay}), [simctl replay/restore/ps/diff] and the replay
    gate that [dune runtest] runs (test/replay/dune). *)

type t = {
  name : string;
  descr : string;
  defense : Defense.t;
  start : ?obs:Obs.t -> unit -> Kernel.Os.t;
}

val all : t list
(** - ["benign"]: a compute/IO loop under full split memory — no attack.
    - ["attack-break"]: shellcode injection, Break response (detection
      kills the victim).
    - ["attack-forensics"]: same injection, Forensics response.
    - ["attack-observe"]: same injection, Observe response with Sebek-style
      syscall tracing (the attack is allowed to proceed). *)

val names : string list
val find : string -> t option

val injected_payload : string
(** The exact shellcode bytes the attack scenarios inject — what a forensic
    capture must extract. *)

val payload_landing : int
(** The guest virtual address the payload lands (and detonates) at. *)
