(** Exploit driver plumbing: spawn a victim under a chosen defense, talk to
    it over its console (the "network"), and classify what happened. *)

type outcome =
  | Shell_spawned of { detected_first : bool }
      (** [execve] reached; [detected_first] means a detection fired first
          (observe mode letting the attack proceed) *)
  | Foiled of { mode : string }  (** detected and terminated *)
  | Crashed of { signal : string }  (** died without detection *)
  | Completed of int  (** exited normally — attack had no effect *)
  | Hung

val outcome_name : outcome -> string
val is_attack_success : outcome -> bool
val is_foiled : outcome -> bool

type session = { k : Kernel.Os.t; victim : Kernel.Proc.t }

(** [start image] spawns [image] under [defense]; [obs] (default
    [Obs.null]) threads a live trace/metrics sink into the kernel. [tune]
    runs on the freshly built kernel before the exploit drives it — e.g.
    attaching a syscall tracer ([(Kernel.Os.probe k).syscall]). *)
val start :
  ?defense:Defense.t ->
  ?stack_jitter_pages:int ->
  ?seed:int ->
  ?obs:Obs.t ->
  ?tune:(Kernel.Os.t -> unit) ->
  Kernel.Image.t ->
  session

val send : session -> string -> unit
val step : session -> Kernel.Os.stop_reason
val recv : session -> string
(** Run until the victim blocks or exits, then drain its stdout. *)

val leak_addr : string -> int
(** Decode an info-leak: the last 4 bytes of a response, little-endian. *)

val classify : Kernel.Os.t -> Kernel.Proc.t -> outcome
val outcome : session -> outcome
