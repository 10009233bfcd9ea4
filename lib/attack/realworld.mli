(** The five real-world vulnerabilities of the paper's Table 2, rebuilt as
    guest servers with the same vulnerability classes, attacked by exploits
    with the same structure (info leaks, unchecked length fields,
    ASCII-translation expansion, brute-forced stack addresses, two-stage
    payloads). *)

type id = Apache_ssl | Bind | Proftpd | Samba | Wuftpd

val all : id list

type info = {
  package : string;
  version : string;
  vuln : string;
  exploit : string;  (** the historical exploit being modelled *)
  injection : string;  (** where the shellcode lands *)
  unprotected_result : string;
}

val info : id -> info
val victim : id -> Kernel.Image.t

val run : ?defense:Defense.t -> ?obs:Obs.t -> id -> Runner.outcome
(** Run the attack end-to-end under a defense. [obs] threads a live
    trace/metrics sink into every kernel the exploit spawns. *)

val run_session :
  ?defense:Defense.t ->
  ?obs:Obs.t ->
  ?tune:(Kernel.Os.t -> unit) ->
  id ->
  Runner.outcome * Runner.session option
(** Like {!run}, but also returns the final kernel session so callers can
    render the machine state (cost model, TLB statistics). [None] only for
    a Samba brute-force that exhausted its attempts. [tune] is applied to
    every kernel the exploit spawns, before it runs (see {!Runner.start}). *)

type samba_result = {
  outcome : Runner.outcome;
  attempts : int;
  detections : int;
  last : Runner.session option;  (** the decisive attempt's session *)
}

val run_samba :
  ?defense:Defense.t ->
  ?obs:Obs.t ->
  ?tune:(Kernel.Os.t -> unit) ->
  ?max_attempts:int ->
  ?jitter_pages:int ->
  unit ->
  samba_result
(** Brute-force loop against independently stack-randomized server
    processes, seeded with a "good first guess" from a reference install
    (paper §6.1.2). *)

val run_wuftpd :
  ?defense:Defense.t ->
  ?obs:Obs.t ->
  ?tune:(Kernel.Os.t -> unit) ->
  ?commands:string list ->
  unit ->
  Runner.outcome * Runner.session
(** The 7350wurm-style two-stage attack; on success, [commands] are typed
    into the spawned shell (fodder for Sebek logging). Returns the live
    session for the Fig. 5 demos. *)
