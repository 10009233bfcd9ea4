(** Reusable guest-assembly fragments shared by victims and benchmark
    workloads.

    Conventions: syscall arguments in EAX/EBX/ECX/EDX per Linux [int 0x80];
    function arguments pushed on the stack (rightmost first); EAX returns.
    Fragments that need labels take a [tag] to keep them unique within an
    image. *)

val sys_exit : int -> Isa.Asm.program
val sys_read_imm : buf:int -> len:int -> Isa.Asm.program
(** read(0, buf, len) with an immediate buffer address. *)

val sys_write_imm : ?fd:int -> buf:int -> len:int -> unit -> Isa.Asm.program

val copy_until_newline : tag:string -> Isa.Asm.program
(** Unbounded copy from [esi] to [edi] until a newline (not copied) — the
    gets()-style vulnerability shared by several victims. Clobbers eax. *)

val copy_counted : tag:string -> Isa.Asm.program
(** Copy ecx bytes from [esi] to [edi] (bounded; not a bug by itself). *)

val setjmp_longjmp : Isa.Asm.program
(** [setjmp]/[longjmp] over a 12-byte jmp_buf (saved eip, esp, ebp); buf in
    ebx, longjmp value in ecx. *)

val filler : int -> string
(** [n] bytes of 'A' padding for overflow strings. *)

val code_filler : tag:string -> pages:int -> Isa.Asm.program
(** A callable function whose body spans [pages] code pages (a few
    instructions per page, chained by jumps) — multi-page hot code. *)

val ws_walk : tag:string -> bss:int -> page_offset:int -> pages:int -> stride:int -> Isa.Asm.program
(** Write one byte every [stride] bytes across [pages] pages starting
    [page_offset] pages after [bss] — a working-set pass. *)
