type ctx = {
  phys : Hw.Phys.t;
  alloc : Frame_alloc.t;
  mmu : Hw.Mmu.t;
  cost : Hw.Cost.t;
  log : Event_log.t;
  obs : Obs.t;
}

type fault_result = Handled | Not_ours

type opcode_verdict =
  | Benign
  | Resume
  | Kill_process of string

type t = {
  name : string;
  nx_hardware : bool;
  dual_pagetables : bool;
  soft_tlb : bool;
  on_page_mapped : ctx -> Proc.t -> Aspace.region -> Pte.t -> unit;
  on_protection_fault : ctx -> Proc.t -> Hw.Mmu.fault -> fault_result;
  on_debug_trap : ctx -> Proc.t -> bool;
  on_invalid_opcode : ctx -> Proc.t -> eip:int -> opcode:int -> opcode_verdict;
  on_tlb_fill : ctx -> Proc.t -> Hw.Mmu.fault -> Pte.t -> int;
  ctrl_monitor :
    (ctx ->
    Proc.t ->
    kind:Hw.Cpu.ctrl_kind ->
    site:int ->
    target:int ->
    ret:int ->
    bool)
    option;
}

let fill_word (p : Pte.t) = Hw.Tlb.word ~frame:p.frame ~writable:p.writable ~user:p.user ~nx:p.nx

let none =
  {
    name = "unprotected";
    nx_hardware = false;
    dual_pagetables = false;
    soft_tlb = false;
    on_page_mapped = (fun _ _ _ _ -> ());
    on_protection_fault = (fun _ _ _ -> Not_ours);
    on_debug_trap = (fun _ _ -> false);
    on_invalid_opcode = (fun _ _ ~eip:_ ~opcode:_ -> Benign);
    on_tlb_fill = (fun _ _ _ pte -> fill_word pte);
    ctrl_monitor = None;
  }
