type event =
  | Exec_shell of { pid : int; path : string }
  | Injection_detected of { pid : int; eip : int; mode : string }
  | Shellcode_dump of { pid : int; eip : int; bytes : string }
  | Forensic_injected of { pid : int; new_eip : int }
  | Recovery_invoked of { pid : int; handler : int; faulting_eip : int }
  | Execution_trail of { pid : int; eips : int list }
  | Signal_delivered of { pid : int; signal : string }
  | Syscall_traced of { pid : int; name : string; info : string }
  | Process_exited of { pid : int; status : string }
  | Library_rejected of { name : string }
  | Fault_detected of { pid : int; kind : string; action : string }
  | Note of string

let pp_event ppf = function
  | Exec_shell { pid; path } -> Fmt.pf ppf "[pid %d] execve(%S) -> shell spawned" pid path
  | Injection_detected { pid; eip; mode } ->
    Fmt.pf ppf "[pid %d] code injection detected at eip=0x%08x (mode=%s)" pid eip mode
  | Shellcode_dump { pid; eip; bytes } ->
    Fmt.pf ppf "[pid %d] shellcode at eip=0x%08x: %s" pid eip
      (String.concat " " (List.init (String.length bytes) (fun i -> Fmt.str "%02x" (Char.code bytes.[i]))))
  | Forensic_injected { pid; new_eip } ->
    Fmt.pf ppf "[pid %d] forensic shellcode injected, eip=0x%08x" pid new_eip
  | Recovery_invoked { pid; handler; faulting_eip } ->
    Fmt.pf ppf "[pid %d] recovery handler 0x%08x invoked (attack eip=0x%08x)" pid handler
      faulting_eip
  | Execution_trail { pid; eips } ->
    Fmt.pf ppf "[pid %d] trail: %s" pid
      (String.concat " -> " (List.map (Fmt.str "0x%08x") eips))
  | Signal_delivered { pid; signal } -> Fmt.pf ppf "[pid %d] killed by %s" pid signal
  | Syscall_traced { pid; name; info } -> Fmt.pf ppf "[sebek pid %d] %s %s" pid name info
  | Process_exited { pid; status } -> Fmt.pf ppf "[pid %d] exited: %s" pid status
  | Library_rejected { name } -> Fmt.pf ppf "library %S rejected: bad signature" name
  | Fault_detected { pid; kind; action } ->
    Fmt.pf ppf "[pid %d] hardware fault detected: kind=%s action=%s" pid kind action
  | Note s -> Fmt.string ppf s

let tag = function
  | Exec_shell _ -> "exec_shell"
  | Injection_detected _ -> "injection_detected"
  | Shellcode_dump _ -> "shellcode_dump"
  | Forensic_injected _ -> "forensic_injected"
  | Recovery_invoked _ -> "recovery_invoked"
  | Execution_trail _ -> "execution_trail"
  | Signal_delivered _ -> "signal_delivered"
  | Syscall_traced _ -> "syscall_traced"
  | Process_exited _ -> "process_exited"
  | Library_rejected _ -> "library_rejected"
  | Fault_detected _ -> "fault_detected"
  | Note _ -> "note"

type t = { mutable events : event list; mutable obs : Obs.t; notify : event -> unit }

let create ?(notify = ignore) () = { events = []; obs = Obs.null; notify }

let attach_obs t obs = t.obs <- obs

let add t e =
  t.events <- e :: t.events;
  (* the kernel log doubles as a trace producer: each security event also
     lands in the cycle-stamped trace stream when observability is on *)
  if Obs.enabled t.obs then
    Obs.event t.obs ~cat:"log" (tag e)
      ~args:[ ("text", Obs.Json.Str (Fmt.str "%a" pp_event e)) ];
  t.notify e

let set_events t events = t.events <- List.rev events
let note t fmt = Fmt.kstr (fun s -> add t (Note s)) fmt
let to_list t = List.rev t.events
(* [events] is newest first: [count] and [shell_spawned] do not depend
   on order, and the oldest match is the last one in a single walk. *)
let count t pred = List.fold_left (fun n e -> if pred e then n + 1 else n) 0 t.events

let find_first t pred =
  List.fold_left (fun found e -> if pred e then Some e else found) None t.events

let shell_spawned t = List.exists (function Exec_shell _ -> true | _ -> false) t.events

let detections t =
  List.filter_map
    (function Injection_detected { pid; eip; mode } -> Some (pid, eip, mode) | _ -> None)
    (to_list t)

let pp ppf t = Fmt.(list ~sep:(any "@\n") pp_event) ppf (to_list t)
