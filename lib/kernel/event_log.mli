(** Kernel event log: security-relevant events (detections, shell spawns,
    Sebek-style traces) that attack runners and tests assert against. *)

type event =
  | Exec_shell of { pid : int; path : string }
      (** the guest reached [execve] — the marker for attack success *)
  | Injection_detected of { pid : int; eip : int; mode : string }
  | Shellcode_dump of { pid : int; eip : int; bytes : string }
  | Forensic_injected of { pid : int; new_eip : int }
  | Recovery_invoked of { pid : int; handler : int; faulting_eip : int }
      (** the application's registered recovery callback took over *)
  | Execution_trail of { pid : int; eips : int list }
      (** recent control flow, oldest first (forensics) *)
  | Signal_delivered of { pid : int; signal : string }
  | Syscall_traced of { pid : int; name : string; info : string }
  | Process_exited of { pid : int; status : string }
  | Library_rejected of { name : string }
  | Fault_detected of { pid : int; kind : string; action : string }
      (** graceful degradation fired on an injected hardware/kernel fault:
          [kind] names the detector ("tlb-desync", "ecc", "oom"), [action]
          what the kernel did about it ("resync", "corrected", "kill") *)
  | Note of string

val pp_event : Format.formatter -> event -> unit

val tag : event -> string
(** Short machine-readable name of the variant ("exec_shell", ...). *)

type t

val create : ?notify:(event -> unit) -> unit -> t
(** [notify] (default: nothing) runs synchronously on every {!add}, after
    the event is appended. A machine's log notifies the machine's probe
    ([Machine.probe]'s [event] slot), so external machinery (e.g. forensic
    snapshotting) reacts at the exact detection instant without the kernel
    depending on it. *)

val attach_obs : t -> Obs.t -> unit
(** Mirror every logged event into the trace stream (category ["log"])
    when the sink is enabled. The in-memory list and {!pp} output are
    unchanged. *)

val add : t -> event -> unit
val note : t -> ('a, Format.formatter, unit, unit) format4 -> 'a

val set_events : t -> event list -> unit
(** Replace the whole log, oldest first (snapshot restore). Nothing is
    notified, and the obs sink is untouched. *)

val to_list : t -> event list
(** Oldest first. *)

val count : t -> (event -> bool) -> int
val find_first : t -> (event -> bool) -> event option
(** The oldest event satisfying the predicate. *)

val shell_spawned : t -> bool

val detections : t -> (int * int * string) list
(** [(pid, eip, mode)] for every injection detection, oldest first. *)

val pp : Format.formatter -> t -> unit
