(* The execution environment: the hardware half of a machine's hooks, one
   mutable record collecting every hook the CPU dispatch loop and the MMU
   consult (the kernel half is [Kernel.Machine.probe]). The record is
   built once (by [Mmu.create]) and mutated in place: the scheduler arms
   [ctrl] and [trail] per quantum, the profiler installs [sample] on
   attach, the fault injector installs [tlb_guard] and [invlpg] on arm,
   and the machine installs [cache] at creation. Keeping the fields
   unboxed options preserves the allocation-free discipline: a machine
   with nothing installed pays one branch per use.

   [trail] is data, not a hook: the dispatch loop writes each retired
   instruction's eip into the armed process's forensic ring itself, since
   a call per retired instruction is a measurable share of dispatch.

   [cursor] holds the dispatcher's own per-machine state, built at the
   first [Cpu.run_block] call, so a call allocates no loop closures. One
   record per machine, never a global: worker domains each run their own
   machines. *)

type access = Fetch | Read | Write

type ctrl_kind = Call_direct | Call_indirect | Return | Jump_indirect

type ctrl = kind:ctrl_kind -> site:int -> target:int -> ret:int -> bool

(* Extended by [Cpu] with its dispatch record, whose fields (the MMU, the
   registers) are types this layer cannot name. *)
type cursor = ..
type cursor += No_cursor

(* A ring of the last retired eips: [ring.(pos)] is the next slot. *)
type trail = { ring : int array; mutable pos : int }

type t = {
  mutable ctrl : ctrl option;
      (* control-transfer monitor (CFI); consulted before a transfer's new
         eip commits, armed per quantum by the scheduler *)
  mutable sample : (access -> int -> bool -> unit) option;
      (* address-sampling profiler hook: (access, vpn, tlb_hit) on every
         successful translation; decimation is the hook's own business *)
  mutable tlb_guard : (access -> int -> int -> bool) option;
      (* fault injection's TLB integrity guard: (access, vpn, word) on
         every TLB hit; [false] rejects the cached word as corrupted, and
         the MMU drops it and retranslates from the live pagetable *)
  mutable invlpg : (int -> bool) option;
      (* fault injection's lost-[invlpg] hook: [true] swallows the
         invalidation of that vpn *)
  mutable trail : trail;
      (* where retired eips go: the running process's forensic ring,
         armed per quantum by the scheduler; a private one-slot ring
         until then *)
  mutable cache : Bbcache.t option;
      (* decoded basic-block cache; [None] = exact byte-at-a-time dispatch *)
  mutable cursor : cursor;
}

let create () =
  {
    ctrl = None;
    sample = None;
    tlb_guard = None;
    invlpg = None;
    trail = { ring = [| -1 |]; pos = 0 };
    cache = None;
    cursor = No_cursor;
  }
