(* The trap layer: the dispatch pipeline that serves each [Hw.Cpu.trap]
   a [Hw.Cpu.run_block] call ends with, routing its class to its handler —
   the paper's architecture in miniature, since the whole defense lives in
   trap handlers: Algorithm 1 in the page-fault handler
   ([Protection.on_protection_fault]/[on_page_mapped]), Algorithm 2 in the
   debug-interrupt handler ([on_debug_trap]), Algorithm 3 in the
   invalid-opcode handler ([on_invalid_opcode]).

   Cost-charging discipline (must stay bit-identical across refactors):
   - retired instruction        -> charge_insn
   - syscall                    -> charge_insn + charge_syscall
   - page fault                 -> charge_trap, EXCEPT software TLB-miss
     traps, whose cost is charged by the fill / full service itself
   - #UD, #GP                   -> charge_trap
   - #DB (trap flag, runnable)  -> charge_trap *)

module M = Machine

(* The per-class label of [traps.by_class]. *)
let class_name : Hw.Cpu.trap -> string = function
  | No_trap -> "none"
  | Sys -> "syscall"
  | Pf -> "page_fault"
  | Ud -> "invalid_opcode"
  | Gp -> "general_protection"
  | Db -> "debug_trap"

(* ------------------------------------------------------------------ *)
(* Page-fault service                                                  *)
(* ------------------------------------------------------------------ *)

(* Software-managed-TLB miss service (SPARC-style, paper §4.7): permission
   checks and COW happen here, then the protection chooses the frame to
   load (split routing) or the kernel fills straight from the PTE. *)
let handle_tlb_miss (m : M.t) (p : Proc.t) (f : Hw.Mmu.fault) (pte : Pte.t) =
  if f.access = Hw.Mmu.Write && pte.cow && pte.orig_writable then begin
    (* COW is a full kernel page-fault service even on soft-TLB machines *)
    Hw.Cost.charge_trap m.cost;
    M.cow_service m pte
  end
  else if
    (f.from_user && (not pte.user) && not (Pte.is_split pte))
    || (f.access = Hw.Mmu.Write && not pte.writable)
  then M.kill m p Proc.Sigsegv
  else
    match m.protection.on_tlb_fill m.ctx p f pte with
    | Protection.Fill entry -> Hw.Mmu.load_tlb m.mmu f.access entry
    | Protection.Default_fill ->
      Hw.Mmu.load_tlb m.mmu f.access
        { vpn = pte.vpn; frame = pte.frame; user = pte.user; writable = pte.writable;
          nx = pte.nx }
    | Protection.Deny_fill -> M.kill m p Proc.Sigsegv

let handle_page_fault (m : M.t) (p : Proc.t) (f : Hw.Mmu.fault) =
  let vpn = f.addr / m.page_size in
  match Aspace.pte p.aspace vpn with
  | None ->
    (* demand paging is a full kernel fault even when the hardware
       delivered it as a lightweight TLB-miss trap *)
    if f.kind = Hw.Mmu.Tlb_miss then Hw.Cost.charge_trap m.cost;
    (match Aspace.find_region p.aspace vpn with
    | Some region -> ignore (M.map_demand_page m p region vpn)
    | None -> M.kill m p Proc.Sigsegv)
  | Some pte -> (
    match f.kind with
    | Hw.Mmu.Not_present -> M.kill m p Proc.Sigsegv
    | Hw.Mmu.Tlb_miss -> handle_tlb_miss m p f pte
    | Hw.Mmu.Protection ->
      if f.access = Hw.Mmu.Write && pte.cow && pte.orig_writable then M.cow_service m pte
      else (
        match m.protection.on_protection_fault m.ctx p f with
        | Protection.Handled -> ()
        | Protection.Not_ours -> M.kill m p Proc.Sigsegv))

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

(* One function per trap class: charge its cost, route it to its handler
   (through the [Protection.t] hooks where the class has one), and feed
   the per-class observability instruments. Each takes the class's
   payload as plain arguments. *)

let count_class (m : M.t) trap =
  match m.hot with
  | None -> ()
  | Some h -> Obs.Metrics.incr_label h.h_traps_by_class (class_name trap)

let serve_syscall ?table (m : M.t) (p : Proc.t) n =
  count_class m Sys;
  let table = match table with Some t -> t | None -> Syscalls.default () in
  let since = m.cost.cycles in
  Hw.Cost.charge_insn m.cost;
  Hw.Cost.charge_syscall m.cost;
  (match m.probe.squeeze with
  | Some squeeze when squeeze p n ->
    (* injected transient kernel failure: restart the syscall
       transparently (the ERESTARTNOINTR discipline) by rewinding the
       guest over its [int 0x80] — the retry re-dispatches *)
    p.regs.eip <- Isa.Encode.mask32 (p.regs.eip - 2)
  | _ -> Syscalls.dispatch table m p n);
  match m.hot with
  | None -> ()
  | Some h ->
    Obs.Metrics.incr h.h_retired;
    Obs.Metrics.incr h.h_syscalls;
    Obs.Metrics.observe h.h_syscall_cycles (m.cost.cycles - since);
    Obs.Metrics.incr_label h.h_sys_by_name (Syscalls.name table n);
    Obs.Metrics.incr_label h.h_sys_by_pid (string_of_int p.pid)

let serve_page_fault (m : M.t) (p : Proc.t) (f : Hw.Mmu.fault) =
  count_class m Pf;
  let since = m.cost.cycles in
  (* software TLB-miss traps are lightweight (their cost is charged by
     the fill itself); everything else is a full kernel trap *)
  if f.kind <> Hw.Mmu.Tlb_miss then Hw.Cost.charge_trap m.cost;
  (* allocator exhaustion (real or injected) during fault service is
     contained by OOM-killing the faulting process *)
  (try handle_page_fault m p f with Frame_alloc.Out_of_frames -> M.oom_kill m p);
  match m.hot with
  | None -> ()
  | Some h ->
    Obs.Metrics.incr h.h_faults;
    Obs.Metrics.observe h.h_fault_cycles (m.cost.cycles - since);
    Obs.Metrics.incr_label h.h_faults_by_page (Fmt.str "0x%05x" (f.addr / m.page_size));
    Obs.Metrics.incr_label h.h_faults_by_pid (string_of_int p.pid);
    Obs.complete m.obs ~cat:"os" ~since "os.fault_service"
      ~args:[ ("pid", Obs.Json.Int p.pid); ("addr", Obs.Json.Str (Fmt.str "0x%08x" f.addr)) ]

let serve_invalid_opcode (m : M.t) (p : Proc.t) ~eip ~opcode =
  count_class m Ud;
  Hw.Cost.charge_trap m.cost;
  match m.protection.on_invalid_opcode m.ctx p ~eip ~opcode with
  | Protection.Benign -> M.kill m p Proc.Sigill
  | Protection.Resume -> ()
  | Protection.Kill_process _reason -> M.kill m p Proc.Sigill

let serve_general_protection (m : M.t) (p : Proc.t) =
  count_class m Gp;
  Hw.Cost.charge_trap m.cost;
  M.kill m p Proc.Sigsegv

let serve_debug (m : M.t) (p : Proc.t) =
  count_class m Db;
  Hw.Cost.charge_trap m.cost;
  if not (m.protection.on_debug_trap m.ctx p) then p.regs.tf <- false

(* Deliver the trap that ended a [Hw.Cpu.run_block] call, read straight
   from the registers that hold its payload, so the scheduler's round trip
   builds nothing but the page-fault record the protection hooks receive.
   The primary trap goes first, then the piggybacked #DB, which x86 raises
   after the instruction completes and only if the primary trap didn't
   unschedule the process. A syscall carries a #DB exactly when the trap
   flag is set, as it was when the instruction started. *)
let deliver_trap ?table (m : M.t) (p : Proc.t) (trap : Hw.Cpu.trap) =
  match trap with
  | No_trap -> ()
  | Sys ->
    let debug = p.regs.tf in
    serve_syscall ?table m p (Hw.Cpu.get p.regs Isa.Reg.EAX);
    if debug && Proc.is_runnable p then serve_debug m p
  | Db ->
    (* a retired instruction is not a trap: it just charges and counts *)
    Hw.Cost.charge_insn m.cost;
    (match m.hot with None -> () | Some h -> Obs.Metrics.incr h.h_retired);
    if Proc.is_runnable p then serve_debug m p
  | Pf -> serve_page_fault m p (Hw.Mmu.pending_fault m.mmu)
  | Ud -> serve_invalid_opcode m p ~eip:(Hw.Cpu.ud_eip m.env) ~opcode:(Hw.Cpu.ud_opcode m.env)
  | Gp -> serve_general_protection m p
