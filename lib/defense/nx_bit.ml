(* The execute-disable-bit baseline (Intel XD / AMD NX, paper §2): data
   pages are marked non-executable, code pages read-only. It needs hardware
   support, cannot protect mixed code+data pages, and can be bypassed by
   gadget code that conjures fresh executable memory. *)

let protection () : Kernel.Protection.t =
  let on_page_mapped _ctx _proc (region : Kernel.Aspace.region) (pte : Kernel.Pte.t) =
    (* Mixed pages must stay executable — exactly the gap the paper
       motivates split memory with. *)
    if not region.execable then pte.nx <- true
  in
  let on_protection_fault (ctx : Kernel.Protection.ctx) (proc : Kernel.Proc.t)
      (f : Hw.Mmu.fault) =
    (if f.access = Hw.Mmu.Fetch then
       let vpn = f.addr / Hw.Phys.page_size ctx.phys in
       match Kernel.Aspace.pte proc.aspace vpn with
       | Some pte when pte.nx ->
         proc.detections <- proc.detections + 1;
         Kernel.Event_log.add ctx.log
           (Kernel.Event_log.Injection_detected { pid = proc.pid; eip = f.addr; mode = "nx" })
       | Some _ | None -> ());
    Kernel.Protection.Not_ours
  in
  let on_tlb_fill (ctx : Kernel.Protection.ctx) (proc : Kernel.Proc.t) (f : Hw.Mmu.fault)
      (pte : Kernel.Pte.t) =
    if f.access = Hw.Mmu.Fetch && pte.nx then begin
      proc.detections <- proc.detections + 1;
      Kernel.Event_log.add ctx.log
        (Kernel.Event_log.Injection_detected { pid = proc.pid; eip = f.addr; mode = "nx" });
      -1
    end
    else Kernel.Protection.fill_word pte
  in
  {
    name = "nx-bit";
    nx_hardware = true;
    dual_pagetables = false;
    soft_tlb = false;
    on_page_mapped;
    on_protection_fault;
    on_debug_trap = (fun _ _ -> false);
    on_invalid_opcode = (fun _ _ ~eip:_ ~opcode:_ -> Kernel.Protection.Benign);
    on_tlb_fill;
    ctrl_monitor = None;
  }
