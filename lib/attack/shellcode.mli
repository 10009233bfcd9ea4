(** Shellcode builders: genuine encoded payload bytes, assembled at the
    address they will be injected to.

    Payloads never contain 0x0A — the victims' overflow bugs are
    gets()-style newline-terminated copies, the classic constraint real
    shellcode authors work around. *)

val assemble_at : base:int -> Isa.Asm.program -> string

val with_layout : base:int -> ((string -> int) -> Isa.Asm.program) -> string
(** Assemble a payload at [base] with absolute intra-payload label
    resolution. *)

val execve_bin_sh : ?sled:int -> base:int -> unit -> string
(** Spawn "/bin/sh" then exit — attack success marker. *)

val execve_bin_sh_pic : ?sled:int -> unit -> string
(** Position-independent spawn-a-shell (call/pop self-location), for
    brute-force attacks that only guess the landing address. *)

val exit0 : string
(** The paper's forensic demonstration payload: [exit(0)] (§6.1.3). *)

val fake_frame : base:int -> string
(** [saved-ebp; return-address] fake frame followed by shellcode, for the
    base-pointer pivot attack. *)

val two_stage_stage1 : ?sled:int -> base:int -> unit -> string
(** 7350wurm-style stage one: write "OK!!" back, read stage two, jump. *)

val interactive_shell : base:int -> string
(** Stage two: spawn a shell, then prompt/read command loop ('q' quits) —
    gives Sebek keystrokes to log. *)

val word32 : int -> string
(** Little-endian 32-bit word as bytes (addresses inside overflow strings). *)

val contains_newline : string -> bool
