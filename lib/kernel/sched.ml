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
    match Proc.find_fd p fd with
    | Read_end pipe -> not (Pipe.is_empty pipe) || not (Pipe.has_writers pipe)
    | Write_end _ | (exception Not_found) -> true)
  | Proc.Write_fd fd -> (
    match Proc.find_fd p fd with
    | Write_end pipe -> Pipe.space pipe > 0 || not (Pipe.has_readers pipe)
    | Read_end _ | (exception Not_found) -> true)
  | Proc.Child target ->
    let children =
      List.filter (fun (c : Proc.t) -> target = 0 || c.pid = target) (M.children_of m p)
    in
    children = [] || List.exists Proc.is_zombie children
  | Proc.Sleep until_ -> m.cost.cycles >= until_

let wake_pid (m : M.t) pid =
  match M.find_proc m pid with
  | p -> (
    match p.state with
    | Proc.Blocked cond ->
      if ready m p cond then begin
        p.state <- Proc.Runnable;
        M.enqueue m p
      end
      else M.register_wait m p cond
    | Proc.Runnable | Proc.Zombie _ -> ())
  | exception Not_found -> ()

(* Event-driven wake: drain the pending-wakeup list the pipes and the
   zombie transition fed since the last boundary, recheck each candidate
   in ascending pid order, and requeue the ready ones. A pending pid whose
   condition still does not hold is re-registered on its pipe, so the next
   state flip pends it again; a pid pended during the recheck waits for
   the next boundary. O(woken), independent of the process count, and
   allocation-free. *)
let wake (m : M.t) =
  let q = m.pending_wakeups in
  let n = Hw.Ints.Stack.sort_uniq q in
  for i = 0 to n - 1 do
    wake_pid m (Hw.Ints.Stack.get q i)
  done;
  Hw.Ints.Stack.drop q n

(* The next runnable process off the run queue, dropping stale entries;
   raises [Not_found] when none is left. *)
let rec dequeue_runnable (m : M.t) =
  let pid = Hw.Ints.Fifo.pop m.runq in
  if pid < 0 then raise Not_found;
  match M.find_proc m pid with
  | p ->
    p.in_runq <- false;
    if Proc.is_runnable p then p else dequeue_runnable m
  | exception Not_found -> dequeue_runnable m

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
      | exception Not_found ->
        if all_zombie m then All_exited
        else
          (* Tickless idle: nothing is runnable but a deadline is
             pending, so jump the clock straight to the earliest wake-up
             instead of spinning — this is what lets closed-loop serving
             clients "think" without burning simulated CPU. The next
             iteration expires the sleeper and runs it. *)
          let until_ = M.earliest_sleeper m in
          if until_ < 0 then All_blocked
          else begin
            if until_ > m.cost.cycles then Hw.Cost.charge m.cost (until_ - m.cost.cycles);
            loop ()
          end
      | p ->
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
  s_rng : int64;
  s_last_running : int option;
  s_next_pid : int;
  s_next_tick : int;
  s_ticks : int;
  s_lib_cursor : int;
}

let state (m : M.t) =
  {
    s_runq = Hw.Ints.Fifo.to_list m.runq;
    s_rng = Prng.state m.rng;
    s_last_running = (if m.last_running < 0 then None else Some m.last_running);
    s_next_pid = m.next_pid;
    s_next_tick = m.next_tick;
    s_ticks = m.ticks;
    s_lib_cursor = m.lib_cursor;
  }

let restore (m : M.t) (s : state) =
  Hw.Ints.Fifo.clear m.runq;
  List.iter
    (fun pid ->
      (* a negative pid names no process (dequeue would skip it) and
         would read as the queue's end *)
      if pid >= 0 then begin
        (match M.proc m pid with Some p -> p.in_runq <- true | None -> ());
        Hw.Ints.Fifo.push m.runq pid
      end)
    s.s_runq;
  Prng.set_state m.rng s.s_rng;
  m.last_running <- Option.value s.s_last_running ~default:(-1);
  m.next_pid <- s.s_next_pid;
  m.next_tick <- s.s_next_tick;
  m.ticks <- s.s_ticks;
  m.lib_cursor <- s.s_lib_cursor
