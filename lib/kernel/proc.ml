type signal = Sigsegv | Sigill | Sigkill | Sigpipe | Sigbus

let signal_name = function
  | Sigsegv -> "SIGSEGV"
  | Sigill -> "SIGILL"
  | Sigkill -> "SIGKILL"
  | Sigpipe -> "SIGPIPE"
  | Sigbus -> "SIGBUS"

type exit_status = Exited of int | Killed of signal

let status_string = function
  | Exited n -> Fmt.str "exit(%d)" n
  | Killed s -> Fmt.str "killed by %s" (signal_name s)

type wait_cond =
  | Read_fd of int
  | Write_fd of int
  | Child of int
  | Sleep of int  (* absolute wake-up deadline on the cycle counter *)

type state = Runnable | Blocked of wait_cond | Zombie of exit_status

(* The blocked states of reads and writes on the first 64 fds, built
   once: a state is immutable, so blocking on a pipe shares one instead of
   allocating it. *)
let shared_fds = 64
let read_blocks = Array.init shared_fds (fun fd -> Blocked (Read_fd fd))
let write_blocks = Array.init shared_fds (fun fd -> Blocked (Write_fd fd))

let blocked_read fd =
  if fd >= 0 && fd < shared_fds then read_blocks.(fd) else Blocked (Read_fd fd)

let blocked_write fd =
  if fd >= 0 && fd < shared_fds then write_blocks.(fd) else Blocked (Write_fd fd)

type fd_obj = Read_end of Pipe.t | Write_end of Pipe.t

type t = {
  pid : int;
  name : string;
  aspace : Aspace.t;
  regs : Hw.Cpu.regs;
  fds : (int, fd_obj) Hashtbl.t;
  console_in : Pipe.t;
  console_out : Pipe.t;
  mutable state : state;
  mutable in_runq : bool;
  mutable p_insns : int;
  mutable next_fd : int;
  mutable pending_fault_addr : int;
  mutable sebek_active : bool;
  mutable parent : int option;
  mutable detections : int;
  mutable recovery_handler : int option;
  trail : Hw.Exec_env.trail;
      (* forensic ring of retired eips; the dispatch loop writes it *)
  mutable ctrl : Hw.Exec_env.ctrl option;  (* the monitor bound to this process *)
  mutable protected_ : bool;
}

let create ~pid ~name ~aspace =
  let console_in = Pipe.create ~name:(Fmt.str "%s.stdin" name) () in
  let console_out = Pipe.create ~capacity:(1 lsl 20) ~name:(Fmt.str "%s.stdout" name) () in
  let fds = Hashtbl.create 8 in
  Hashtbl.replace fds 0 (Read_end console_in);
  Hashtbl.replace fds 1 (Write_end console_out);
  {
    pid;
    name;
    aspace;
    regs = Hw.Cpu.create_regs ();
    fds;
    console_in;
    console_out;
    state = Runnable;
    in_runq = false;
    p_insns = 0;
    next_fd = 3;
    pending_fault_addr = -1;
    sebek_active = false;
    parent = None;
    detections = 0;
    recovery_handler = None;
    trail = { ring = Array.make 32 (-1); pos = 0 };
    ctrl = None;
    protected_ = true;
  }

let find_fd t n = Hashtbl.find t.fds n

let install_fd t obj =
  let n = t.next_fd in
  t.next_fd <- n + 1;
  Hashtbl.replace t.fds n obj;
  n

let replace_fd t n obj = Hashtbl.replace t.fds n obj

let close_fd t n =
  match Hashtbl.find_opt t.fds n with
  | None -> false
  | Some (Read_end p) ->
    Pipe.close_reader p;
    Hashtbl.remove t.fds n;
    true
  | Some (Write_end p) ->
    Pipe.close_writer p;
    Hashtbl.remove t.fds n;
    true

let close_all_fds t =
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.fds [] in
  List.iter (fun k -> ignore (close_fd t k)) keys

let is_runnable t = t.state = Runnable
let is_zombie t = match t.state with Zombie _ -> true | _ -> false

let pp_state ppf = function
  | Runnable -> Fmt.string ppf "runnable"
  | Blocked (Read_fd n) -> Fmt.pf ppf "blocked(read fd %d)" n
  | Blocked (Write_fd n) -> Fmt.pf ppf "blocked(write fd %d)" n
  | Blocked (Child pid) -> Fmt.pf ppf "blocked(wait pid %d)" pid
  | Blocked (Sleep until_) -> Fmt.pf ppf "blocked(sleep until %d)" until_
  | Zombie s -> Fmt.pf ppf "zombie(%s)" (status_string s)

(* Oldest-first list of the last executed instruction addresses. *)
let trace_trail t =
  let { Hw.Exec_env.ring; pos } = t.trail in
  let n = Array.length ring in
  let rec collect i acc =
    if i = 0 then acc
    else
      let idx = (pos - i + (2 * n)) mod n in
      let v = ring.(idx) in
      collect (i - 1) (if v >= 0 then v :: acc else acc)
  in
  List.rev (collect n [])
