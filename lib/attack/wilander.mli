(** Reconstruction of the Wilander & Kamkar buffer-overflow benchmark used
    for the paper's Table 1: control-flow hijack techniques crossed with
    the segment the shellcode is injected into.

    Every victim is a real guest program with a genuine memory-safety bug
    (an unbounded newline-terminated copy); every exploit follows the
    real-world shape: leak the landing address, plant encoded shellcode,
    send the overflow packet. *)

type technique =
  | Ret_addr  (** direct overwrite of the saved return address *)
  | Base_ptr  (** saved-EBP overwrite; pivot into a fake frame *)
  | Func_ptr_var  (** function pointer adjacent to a global buffer *)
  | Func_ptr_param  (** function pointer passed as a stack parameter *)
  | Longjmp_var  (** jmp_buf adjacent to a bss buffer *)
  | Longjmp_param  (** heap jmp_buf reached through a parameter *)
  | Ptr_ret_addr  (** clobbered data pointer redirects a write onto the return address *)
  | Ptr_func_ptr  (** ... onto a function pointer *)
  | Ptr_longjmp  (** ... onto a jmp_buf *)

type location = Stack | Heap | Bss | Data

val techniques : technique list
val locations : location list
val technique_name : technique -> string
val location_name : location -> string

val victim : technique -> Kernel.Image.t
(** The vulnerable guest server for one hijack technique; the injection
    segment is chosen at runtime by the exploit's selector byte. *)

val run : ?defense:Defense.t -> technique -> location -> Runner.outcome
(** Full exploit session: selector, leak, shellcode, overflow packet. *)

val benign_run : ?defense:Defense.t -> technique -> Runner.outcome * string
(** Non-malicious session: the victim must complete normally and print
    "DONE" under every defense. *)

val packet : technique -> landing:int -> string
(** The overflow packet for a given shellcode landing address. *)

val shellcode : technique -> landing:int -> string
