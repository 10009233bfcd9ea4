(* The execution environment: one mutable record per machine collecting
   every hook the CPU dispatch loop consults, replacing the optional
   arguments and per-subsystem hook fields that used to accrete on
   [Cpu.step] ([?ctrl]) and [Mmu.t] ([sample_hook]). The record is built
   once (by [Mmu.create]) and mutated in place: the scheduler arms [ctrl]
   and [retire] per quantum, the profiler installs [sample] on attach, and
   the machine installs [cache] at creation. Keeping the fields unboxed
   options (and [retire] a plain closure) preserves the allocation-free
   discipline: a machine with nothing installed pays one branch per use.

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

type t = {
  mutable ctrl : ctrl option;
      (* control-transfer monitor (CFI); consulted before a transfer's new
         eip commits, armed per quantum by the scheduler *)
  mutable sample : (access -> int -> bool -> unit) option;
      (* address-sampling profiler hook: (access, vpn, tlb_hit) on every
         successful translation; decimation is the hook's own business *)
  mutable retire : int -> unit;
      (* per-retired-instruction hook with the instruction's eip (the
         kernel's forensic trace ring); [ignore] when nothing listens *)
  mutable cache : Bbcache.t option;
      (* decoded basic-block cache; [None] = exact byte-at-a-time dispatch *)
  mutable cursor : cursor;
}

let create () =
  { ctrl = None; sample = None; retire = ignore; cache = None; cursor = No_cursor }
