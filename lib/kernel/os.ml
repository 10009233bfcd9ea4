(* The kernel facade. The monolith this module used to be is now four
   explicit layers —

     Machine   state + memory/process services (demand paging, COW, fork,
               loader, consoles, teardown)
     Syscalls  declarative syscall table: number -> {name; handler}
     Trap      first-class trap type + dispatch through Protection hooks
               (Algorithms 1-3 live behind this boundary)
     Sched     round-robin run loop, quantum/fuel/tick accounting

   — and this file only re-exports them behind the historical stable API.
   [t] {e is} the machine; use {!machine} to hand it to a layer directly. *)

exception Rejected_image = Machine.Rejected_image
exception Efault = Machine.Efault

type library = Machine.library = { lib_base : int; code : string; lib_signature : int }

type stop_reason = Sched.stop_reason = All_exited | All_blocked | Fuel_exhausted

type t = Machine.t

let create = Machine.create
let machine t = t
let probe (t : t) = t.Machine.probe
let ctx = Machine.ctx
let log (t : t) = t.Machine.log
let obs (t : t) = t.Machine.obs
let syscall_name n = Syscalls.name (Syscalls.default ()) n
let cost (t : t) = t.Machine.cost
let mmu (t : t) = t.Machine.mmu
let env (t : t) = t.Machine.env
let bbcache (t : t) = t.Machine.env.Hw.Exec_env.cache
let phys (t : t) = t.Machine.phys
let alloc (t : t) = t.Machine.alloc
let page_size (t : t) = t.Machine.page_size
let proc = Machine.proc
let procs = Machine.procs
let protection (t : t) = t.Machine.protection
let children_of = Machine.children_of

let register_library = Machine.register_library
let tamper_library = Machine.tamper_library
let spawn = Machine.spawn

let feed_stdin = Machine.feed_stdin
let close_stdin = Machine.close_stdin
let read_stdout = Machine.read_stdout
let connect = Machine.connect

let run ?fuel t = Sched.run ?fuel t

let copy_from_user = Machine.copy_from_user
let copy_to_user = Machine.copy_to_user
let read_cstring = Machine.read_cstring
let load_pagetables = Machine.load_pagetables
let map_demand_page = Machine.map_demand_page

(* ------------------------------------------------------------------ *)
(* Snapshot support                                                    *)
(* ------------------------------------------------------------------ *)

let set_sched_hook (t : t) hook = t.Machine.probe.boundary <- hook

let libraries = Machine.libraries
let restore_libraries = Machine.restore_libraries
let replace_procs = Machine.replace_procs

let set_syscall_tracer (t : t) tracer = t.Machine.probe.syscall <- tracer

let last_running (t : t) =
  if t.Machine.last_running < 0 then None else Some t.Machine.last_running
