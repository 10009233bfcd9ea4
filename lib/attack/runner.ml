type outcome =
  | Shell_spawned of { detected_first : bool }
  | Foiled of { mode : string }
  | Crashed of { signal : string }
  | Completed of int
  | Hung

let outcome_name = function
  | Shell_spawned { detected_first = false } -> "root shell"
  | Shell_spawned { detected_first = true } -> "shell (observed)"
  | Foiled { mode } -> Fmt.str "foiled (%s)" mode
  | Crashed { signal } -> Fmt.str "crashed (%s)" signal
  | Completed n -> Fmt.str "exit %d" n
  | Hung -> "hung"

let is_attack_success = function
  | Shell_spawned _ -> true
  | Foiled _ | Crashed _ | Completed _ | Hung -> false

let is_foiled = function
  | Foiled _ -> true
  | Shell_spawned _ | Crashed _ | Completed _ | Hung -> false

type session = { k : Kernel.Os.t; victim : Kernel.Proc.t }

let start ?(defense = Defense.unprotected) ?(stack_jitter_pages = 0) ?seed
    ?(obs = Obs.null) ?tune image =
  let protection = Defense.to_protection defense in
  let k =
    Kernel.Os.create ~stack_jitter_pages ?seed ~obs ~protection ()
  in
  let victim = Kernel.Os.spawn k image in
  Option.iter (fun f -> f k) tune;
  { k; victim }

let send s data =
  let n = Kernel.Os.feed_stdin s.k s.victim data in
  if n <> String.length data then
    invalid_arg (Fmt.str "Runner.send: console full (%d of %d bytes)" n (String.length data))

let step s = Kernel.Os.run s.k

let recv s =
  ignore (step s);
  Kernel.Os.read_stdout s.k s.victim

let leak_addr response =
  let n = String.length response in
  if n < 4 then invalid_arg "Runner.leak_addr: response too short";
  let b i = Char.code response.[n - 4 + i] in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)

let classify (k : Kernel.Os.t) (victim : Kernel.Proc.t) =
  let log = Kernel.Os.log k in
  let my_detection =
    List.exists (fun (pid, _, _) -> pid = victim.pid) (Kernel.Event_log.detections log)
  in
  let shell =
    Kernel.Event_log.find_first log (function
      | Kernel.Event_log.Exec_shell { pid; _ } -> pid = victim.pid
      | _ -> false)
    <> None
  in
  if shell then Shell_spawned { detected_first = my_detection }
  else
    match victim.state with
    | Kernel.Proc.Zombie (Kernel.Proc.Killed signal) ->
      if my_detection then
        let mode =
          match
            List.find_opt (fun (pid, _, _) -> pid = victim.pid)
              (Kernel.Event_log.detections log)
          with
          | Some (_, _, mode) -> mode
          | None -> "unknown"
        in
        Foiled { mode }
      else Crashed { signal = Kernel.Proc.signal_name signal }
    | Kernel.Proc.Zombie (Kernel.Proc.Exited n) -> Completed n
    | Kernel.Proc.Runnable | Kernel.Proc.Blocked _ -> Hung

let outcome s = classify s.k s.victim
