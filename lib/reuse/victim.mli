(** The code-reuse victim image: a daemon with the shared gets()-style
    copy bug, unintended gadgets inside checksum-constant immediates, a
    never-called privileged [maintenance] routine, and a data function
    pointer ([gfptr]) — everything the reuse attacks need and nothing a
    split memory would ever see written. *)

val sel_stack : string
(** Selector byte for the vulnerable stack-frame path. *)

val sel_fptr : string
(** Selector byte for the function-pointer dispatch path. *)

val image : unit -> Kernel.Image.t
