(** The execution environment: the hardware half of a machine's hooks
    (the kernel half is [Kernel.Machine.probe]), the one record the CPU
    dispatch loop and the MMU consult. Built once per machine (by
    {!Mmu.create}, reachable via {!Mmu.env}) and mutated in place by its
    owners — the scheduler arms {!t.ctrl}/{!t.trail} per quantum, the
    profiler installs {!t.sample} on attach/detach, the fault injector
    installs {!t.tlb_guard}/{!t.invlpg} on arm/disarm, the machine installs
    {!t.cache} at creation. Each slot holds one hook: writing it replaces
    the previous one. Every hook's arguments are unboxed: a TLB entry
    reaches {!t.tlb_guard} as its vpn and PTE word ({!Tlb.word}'s layout),
    the one TLB entry format. *)

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
  mutable tlb_guard : (access -> int -> int -> bool) option;
      (** TLB integrity guard (lib/inject's detection hook): [g access vpn
          word] sees every TLB {e hit} — the vpn and the cached PTE word —
          before permission checks and returns [false] to reject the
          entry as corrupted. A rejected entry is invalidated
          and the access retranslated, so the retry misses and refills (or
          faults) from the live pagetable — the resync path. The guard
          must not touch the MMU's TLBs itself. While one is installed,
          {!Cpu.run_block} dispatches exactly, so the guard sees every hit
          individually. *)
  mutable invlpg : (int -> bool) option;
      (** missed-[invlpg] fault hook (lib/inject): called with the vpn of
          every {!Mmu.invlpg}; [true] swallows the invalidation, leaving
          any cached entries stale. [Mmu.flush_tlbs] is never
          suppressed. *)
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
(** All hooks off: [ctrl], [sample], [tlb_guard], [invlpg] and [cache]
    [None], a private one-slot [trail]; no cursor yet. *)
