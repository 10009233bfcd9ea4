(** Memory-management unit: virtual-address translation through the split
    instruction/data TLBs, with a hardware pagetable walk on miss.

    Permission checks are performed against the {e cached} TLB entry on a
    hit and against the PTE on a miss, exactly as on x86. A permission
    violation on a miss does not fill the TLB. This is the property the
    split-memory technique exploits: a PTE can be restricted (supervisor)
    while a previously loaded user-accessible TLB entry keeps servicing
    accesses of one kind, routing fetches and data accesses to different
    physical frames.

    One entry format: the walker returns a PTE word ({!Tlb.word}'s layout,
    negative when not present), the TLBs cache words, the OS's software
    fill ({!load_tlb}) loads a word and the integrity guard
    ({!Exec_env.t.tlb_guard}) inspects one. So a translation allocates
    nothing, hit, guarded hit, walk, fill or fault: a fault writes the one
    fault register ({!pending_fault}). *)

type access = Exec_env.access = Fetch | Read | Write

type hw_pte = { frame : int; present : bool; writable : bool; user : bool; nx : bool }
(** A decoded pagetable entry: the walker type of {!reload_cr3}, the
    benchmark adapter. *)

type fill_mode =
  | Hardware_walk  (** x86: misses are resolved by the hardware page walker *)
  | Software_fill
      (** SPARC-style: misses trap to the OS, which loads the TLB directly
          (paper §4.7) *)

type fault_kind =
  | Not_present
  | Protection
  | Tlb_miss  (** software-fill mode only: the OS must load the TLB *)

type fault = {
  mutable addr : int;
  mutable access : access;
  mutable kind : fault_kind;
  mutable from_user : bool;
}
(** The MMU's fault register, like x86's CR2: one record per MMU that
    every fault overwrites (see {!pending_fault}). A record built by a
    caller is an ordinary value. *)

val pp_fault : Format.formatter -> fault -> unit
(** The canonical fault formatter ([#PF addr=... access=... kind=...
    mode=...]). {!Cpu.pp_fault} and the kernel's trap pretty-printer route
    their page-fault arm through this, so every layer prints faults the
    same way. *)

type t

val create :
  ?itlb_capacity:int ->
  ?dtlb_capacity:int ->
  ?tlb_policy:Tlb.policy ->
  phys:Phys.t ->
  cost:Cost.t ->
  unit ->
  t
(** [tlb_policy] (default {!Tlb.Fifo}) selects the replacement policy for
    both TLBs — the profiler's eviction-policy experiments sweep it. *)

val phys : t -> Phys.t
val itlb : t -> Tlb.t
val dtlb : t -> Tlb.t
val cost : t -> Cost.t

val env : t -> Exec_env.t
(** The machine's execution environment — the hooks record shared with the
    CPU dispatch loop, created with the MMU and mutated in place by its
    owners (see {!Exec_env}). The profiler installs its sampling hook as
    [(Mmu.env mmu).Exec_env.sample <- Some h]. *)

val obs : t -> Obs.t
val set_obs : t -> Obs.t -> unit
(** Attach an observability sink (default {!Obs.null}). The MMU emits
    trace events and counters for walks, fills, soft fills, TLB flushes
    and faults when the sink is enabled. *)

val set_nx : t -> bool -> unit
(** Enable/disable execute-disable-bit enforcement (legacy x86 = off). *)

val set_fill_mode : t -> fill_mode -> unit

val load_tlb : t -> access -> int -> int -> unit
(** [load_tlb t access vpn word]: software TLB load from the OS miss
    handler (Software_fill mode) — fill [word] for [vpn] into the I- or
    D-TLB according to the faulting access. *)

val enable_caches : ?lines:int -> t -> unit
(** Attach the I/D cache timing model (off by default; used by the
    self-modifying-code coherency ablation). *)

val icache : t -> Cache.t option
val dcache : t -> Cache.t option

val kernel_code_write : t -> frame:int -> off:int -> int -> unit
(** Kernel byte store into a physical frame with coherency effects (icache
    invalidation + pipeline-flush penalty if the line was cached). *)

val load_cr3 : t -> (int -> int) -> unit
(** Load a new pagetable and flush both TLBs — what a context switch
    does. Clears any dual-pagetable configuration. The walker maps a vpn
    to its PTE word ({!Tlb.word}), negative when the page is not present;
    it must not allocate if the walk is to stay allocation-free. *)

val reload_cr3 : t -> (int -> hw_pte option) -> unit
(** {!load_cr3} through a walker that returns a decoded {!hw_pte}: an
    allocating adapter kept only for [bench/perf/loops.ml], which goes
    when that benchmark next changes. *)

val load_cr3_dual : t -> code:(int -> int) -> data:(int -> int) -> unit
(** The §3.3.1 hardware modification: two pagetable registers, CR3-C
    walked on instruction fetches and CR3-D on data accesses. *)

val flush_tlbs : t -> unit
val invlpg : t -> int -> unit
(** Invalidate one vpn in both TLBs (unless an installed
    {!Exec_env.t.invlpg} hook swallows it). [flush_tlbs] is never
    suppressed. *)

val translate_result : t -> from_user:bool -> access -> int -> int
(** The non-raising, non-allocating fast path. The result is an unboxed
    variant packed into an [int]: a physical address is always [>= 0], so
    a non-negative result is the packed paddr ([frame * page_size + off],
    decodable with {!Phys.frame_of_addr}/{!Phys.off_of_addr}) and a
    negative result is a fault code.
    On a fault the details are written into the fault register (the CR2
    analogue) returned by {!pending_fault} — no record or exception is
    allocated. *)

val pending_fault : t -> fault
(** The fault register itself, not a copy. It describes the most recent
    fault: read it after a negative {!translate_result} or a
    {!Pending_fault} raise, before the next faulting translation
    overwrites it. A caller that keeps a fault past its trap copies it
    ([{ f with addr = f.addr }]). *)

exception Pending_fault
(** Constant (payload-free) exception raised by the {!Fast} accessors so a
    faulting access unwinds without allocating. Catch it and read
    {!pending_fault} at the trap boundary. *)

(** The one memory-access API (the CPU dispatch loop, the kernel and
    tests all use it). One shared translation core holds the fault
    plumbing: a faulting access raises the constant {!Pending_fault}, and
    the caller reads the fault with {!pending_fault}. Each accessor layers
    exactly its cache traffic over the physical access. 32-bit accesses
    that straddle a page boundary decay into four byte accesses, each with
    its own translation and fault point. *)
module Fast : sig
  val fetch8 : t -> from_user:bool -> int -> int
  (** Instruction-side byte read (ITLB + icache). *)

  val read8 : t -> from_user:bool -> int -> int
  val write8 : t -> from_user:bool -> int -> int -> unit
  val read32 : t -> from_user:bool -> int -> int
  val write32 : t -> from_user:bool -> int -> int -> unit
end

val touch_icache : t -> int -> unit
(** Charge an icache access for packed paddr [pa] (no-op when the cache
    timing model is off). The block dispatcher replays this per fetched
    byte so cycle counts match the per-instruction interpreter exactly. *)

val touch_read : t -> int -> unit
(** Algorithm 1's DTLB load: user-mode read of one byte so the hardware
    walks the (temporarily unrestricted) PTE into the data-TLB. Goes
    through {!Fast.read8}: a fault raises {!Pending_fault}. *)
