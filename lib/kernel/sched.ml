(* The scheduler layer: round-robin run loop, quantum accounting, timer
   ticks, fuel handling, and the raw scheduler-state export consumed by
   lib/snap. Traps raised by the running process are handed to
   [Trap.deliver_trap]; everything else here is pure CPU-time bookkeeping. *)

module M = Machine

type stop_reason = All_exited | All_blocked | Fuel_exhausted

(* The wait-condition recheck: the one definition of "ready". [wake]
   requeues only processes it holds for, and the determinism harness
   (test/test_equiv.ml) checks at every boundary that no blocked process
   still satisfies it. *)
let ready (m : M.t) (p : Proc.t) cond =
  match cond with
  | Proc.Read_fd fd -> (
    match Proc.fd p fd with
    | Some (Read_end pipe) -> not (Pipe.is_empty pipe) || not (Pipe.has_writers pipe)
    | Some (Write_end _) | None -> true)
  | Proc.Write_fd fd -> (
    match Proc.fd p fd with
    | Some (Write_end pipe) -> Pipe.space pipe > 0 || not (Pipe.has_readers pipe)
    | Some (Read_end _) | None -> true)
  | Proc.Child target ->
    let children =
      List.filter (fun (c : Proc.t) -> target = 0 || c.pid = target) (M.children_of m p)
    in
    children = [] || List.exists Proc.is_zombie children
  | Proc.Sleep until_ -> m.cost.cycles >= until_

(* Event-driven wake: drain the pending-wakeup list the pipes and the
   zombie transition fed since the last boundary, recheck each candidate
   in ascending pid order, and requeue the ready ones. A pending pid whose
   condition still does not hold is re-registered on its pipe, so the next
   state flip pends it again. O(woken), independent of the process count. *)
let wake (m : M.t) =
  match m.pending_wakeups with
  | [] -> ()
  | pending ->
    m.pending_wakeups <- [];
    List.iter
      (fun pid ->
        match M.proc m pid with
        | Some p -> (
          match p.state with
          | Proc.Blocked cond ->
            if ready m p cond then begin
              p.state <- Proc.Runnable;
              M.enqueue m p
            end
            else M.register_wait m p cond
          | Proc.Runnable | Proc.Zombie _ -> ())
        | None -> ())
      (match pending with [ _ ] -> pending | _ -> List.sort_uniq Int.compare pending)

let rec dequeue_runnable (m : M.t) =
  match Queue.take_opt m.runq with
  | None -> None
  | Some pid -> (
    match M.proc m pid with
    | Some p ->
      p.in_runq <- false;
      if Proc.is_runnable p then Some p else dequeue_runnable m
    | None -> dequeue_runnable m)

let all_zombie (m : M.t) =
  Hashtbl.fold (fun _ p acc -> acc && Proc.is_zombie p) m.procs true

let switch_to (m : M.t) (p : Proc.t) =
  if m.last_running <> p.pid then begin
    Hw.Cost.charge_ctx_switch m.cost;
    M.load_pagetables m p;
    m.last_running <- p.pid;
    (match m.probe.switch with Some f -> f p | None -> ());
    if Obs.enabled m.obs then
      Obs.event m.obs ~cat:"os" "os.ctx_switch" ~args:[ ("pid", Obs.Json.Int p.pid) ]
  end

(* The timer interrupt: charges the trap, and every [daemon_period]-th tick
   a background task (kflushd, a logging daemon...) actually runs, which is
   a real context switch and flushes both TLBs. This is the background
   activity that keeps split pages re-faulting even in single-process
   workloads, as on the paper's testbed. *)
let timer_tick (m : M.t) =
  if m.cost.cycles >= m.next_tick then begin
    Hw.Cost.charge_trap m.cost;
    m.ticks <- m.ticks + 1;
    if m.cost.params.daemon_period > 0 && m.ticks mod m.cost.params.daemon_period = 0
    then begin
      Hw.Cost.charge_ctx_switch m.cost;
      Hw.Mmu.flush_tlbs m.mmu
    end;
    m.next_tick <- m.cost.cycles + m.cost.params.timer_tick_cycles
  end

let run_quantum ?table (m : M.t) (p : Proc.t) fuel =
  (* Arm the control-transfer monitor for this quantum. The closure (and
     the protection context it captures) is built once per quantum, not per
     step, and not at all for non-CFI protections — the common step loop
     stays allocation-free. *)
  let ctrl =
    match m.protection.ctrl_monitor with
    | Some mon when p.protected_ ->
      let ctx = m.ctx in
      Some (fun ~kind ~site ~target ~ret -> mon ctx p ~kind ~site ~target ~ret)
    | Some _ | None -> None
  in
  (* Arm the dispatch environment for this quantum: field writes only. *)
  m.env.Hw.Exec_env.ctrl <- ctrl;
  m.env.Hw.Exec_env.trail <- p.trail;
  let insns0 = m.cost.insns in
  let steps = ref m.quantum in
  while Proc.is_runnable p && !steps > 0 && !fuel > 0 do
    timer_tick m;
    (* [run_block] picks cached or exact dispatch itself; a trap handler
       that sets the trap flag mid-quantum is seen at the next call *)
    let max_insns = min !steps !fuel in
    let trap = Hw.Cpu.run_block m.env m.mmu p.regs ~max_insns ~tick_limit:m.next_tick in
    let attempts = Hw.Cpu.attempts m.env and retired = Hw.Cpu.retired m.env in
    steps := !steps - attempts;
    fuel := !fuel - attempts;
    (* flush the batched retire accounting before any trap delivery: a
       trap handler may read the counters *)
    m.cost.insns <- m.cost.insns + retired;
    (match m.hot with None -> () | Some h -> Obs.Metrics.incr ~by:retired h.h_retired);
    Trap.deliver_trap ?table m p trap
  done;
  p.p_insns <- p.p_insns + (m.cost.insns - insns0);
  if Proc.is_runnable p then M.enqueue m p

let run ?(fuel = 50_000_000) ?table (m : M.t) =
  let fuel = ref fuel in
  let rec loop () =
    M.expire_sleepers m;
    wake m;
    (* the probe's boundary slots: the machine is in a consistent,
       resumable state here (no quantum in flight), which is exactly where
       periodic checkpointing must sample it; fault injection fires at the
       same point, after the checkpoint has sampled the pre-fault state *)
    (match m.probe.boundary with Some f -> f () | None -> ());
    (match m.probe.inject with Some f -> f () | None -> ());
    if !fuel <= 0 then Fuel_exhausted
    else
      match dequeue_runnable m with
      | None ->
        if all_zombie m then All_exited
        else (
          (* Tickless idle: nothing is runnable but a deadline is
             pending, so jump the clock straight to the earliest wake-up
             instead of spinning — this is what lets closed-loop serving
             clients "think" without burning simulated CPU. The next
             iteration expires the sleeper and runs it. *)
          match M.earliest_sleeper m with
          | Some until_ ->
            if until_ > m.cost.cycles then
              Hw.Cost.charge m.cost (until_ - m.cost.cycles);
            loop ()
          | None -> All_blocked)
      | Some p ->
        switch_to m p;
        run_quantum ?table m p fuel;
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Snapshot support: raw scheduler/system state exposure               *)
(* ------------------------------------------------------------------ *)

type state = {
  s_runq : int list;  (* front of the queue first *)
  s_rng : Random.State.t;
  s_last_running : int option;
  s_next_pid : int;
  s_next_tick : int;
  s_ticks : int;
  s_lib_cursor : int;
}

let state (m : M.t) =
  {
    s_runq = List.of_seq (Queue.to_seq m.runq);
    s_rng = Random.State.copy m.rng;
    s_last_running = (if m.last_running < 0 then None else Some m.last_running);
    s_next_pid = m.next_pid;
    s_next_tick = m.next_tick;
    s_ticks = m.ticks;
    s_lib_cursor = m.lib_cursor;
  }

let restore (m : M.t) (s : state) =
  Queue.clear m.runq;
  List.iter
    (fun pid ->
      (match M.proc m pid with Some p -> p.in_runq <- true | None -> ());
      Queue.add pid m.runq)
    s.s_runq;
  m.rng <- Random.State.copy s.s_rng;
  m.last_running <- Option.value s.s_last_running ~default:(-1);
  m.next_pid <- s.s_next_pid;
  m.next_tick <- s.s_next_tick;
  m.ticks <- s.s_ticks;
  m.lib_cursor <- s.s_lib_cursor
