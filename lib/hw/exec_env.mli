(** The execution environment: the one hooks record the CPU dispatch loop
    consults, built once per machine (by {!Mmu.create}, reachable via
    {!Mmu.env}) and mutated in place by its owners — the scheduler arms
    {!t.ctrl}/{!t.trail} per quantum, the profiler installs {!t.sample} on
    attach/detach, the machine installs {!t.cache} at creation. This
    replaces [Cpu.step]'s [?ctrl] optional argument surface and the MMU's
    [sample_hook] field; {!Cpu.step} remains as a thin wrapper for callers
    that pass their own monitor. *)

type access = Fetch | Read | Write
(** Re-exported as {!Mmu.access}; lives here so the sampling hook type can
    be stated below the MMU in the module graph. *)

type ctrl_kind = Call_direct | Call_indirect | Return | Jump_indirect
(** Re-exported as {!Cpu.ctrl_kind}. *)

type ctrl = kind:ctrl_kind -> site:int -> target:int -> ret:int -> bool

type cursor = ..
(** Opaque at this layer: {!Cpu} adds the constructor that carries its
    dispatch record. *)

type cursor += No_cursor

type trail = { ring : int array; mutable pos : int }
(** A forensic ring of retired eips: [ring.(pos)] is the slot the next
    retired instruction overwrites, and [pos] wraps to 0 at the end.
    Each kernel process owns one; the snapshot stores [ring] and [pos] as
    they are. *)

type t = {
  mutable ctrl : ctrl option;
      (** control-transfer monitor (a CFI defense): consulted on every
          [call]/[call reg]/[ret]/[jmp reg] after the instruction's memory
          accesses and before the new eip commits; [false] denies the
          transfer (#GP). Armed per quantum. *)
  mutable sample : (access -> int -> bool -> unit) option;
      (** address-sampling hook (lib/prof): [h access vpn tlb_hit] on
          every {e successful} translation, after permission checks. All
          arguments unboxed; [None] costs one branch. When installed, the
          block dispatcher replays fetches byte-at-a-time so decimation
          order is preserved exactly. *)
  mutable trail : trail;
      (** the ring {!Cpu.run_block} writes every retired instruction's eip
          into (a trapping one is not written; a retired [int 0x80] is).
          The scheduler arms the running process's ring each quantum;
          until then it is a private one-slot ring nobody reads. Writing
          it is the loop's own work — two stores, no call. *)
  mutable cache : Bbcache.t option;
      (** decoded basic-block cache; [None] means exact byte-at-a-time
          dispatch — the differential oracle for the cached path. *)
  mutable cursor : cursor;
      (** {!Cpu.run_block}'s per-machine dispatch state, built at the first
          call on an MMU and reused by every later one; read it through
          {!Cpu.attempts} and friends *)
}

val create : unit -> t
(** All hooks off: [ctrl = None], [sample = None], a private one-slot
    [trail], [cache = None]; no cursor yet. *)
