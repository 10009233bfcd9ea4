open Isa.Asm

(* Reusable guest-assembly fragments for victims and benchmark workloads.
   Calling convention used throughout: arguments pushed on the stack
   (rightmost first), eax = return value, syscalls per Linux int 0x80. *)

let sys_exit n = [ I (Mov_ri (EAX, 1)); I (Mov_ri (EBX, n)); I (Int 0x80) ]

let sys_read_imm ~buf ~len =
  [
    I (Mov_ri (EAX, 3));
    I (Mov_ri (EBX, 0));
    I (Mov_ri (ECX, buf));
    I (Mov_ri (EDX, len));
    I (Int 0x80);
  ]

let sys_write_imm ?(fd = 1) ~buf ~len () =
  [
    I (Mov_ri (EAX, 4));
    I (Mov_ri (EBX, fd));
    I (Mov_ri (ECX, buf));
    I (Mov_ri (EDX, len));
    I (Int 0x80);
  ]

(* Unbounded copy from [esi] to [edi] until a newline — the gets()-style
   vulnerability shared by several victims. The newline is not copied. *)
let copy_until_newline ~tag =
  [
    L (tag ^ "_copy");
    I (Loadb (EAX, ESI, 0));
    I (Cmp_ri (EAX, 0x0A));
    I (Jz (Lbl (tag ^ "_end")));
    I (Storeb (EDI, 0, EAX));
    I (Add_ri (ESI, 1));
    I (Add_ri (EDI, 1));
    I (Jmp (Lbl (tag ^ "_copy")));
    L (tag ^ "_end");
  ]

(* Bounded copy of ecx bytes from [esi] to [edi] (not a bug). *)
let copy_counted ~tag =
  [
    L (tag ^ "_copy");
    I (Cmp_ri (ECX, 0));
    I (Jz (Lbl (tag ^ "_end")));
    I (Loadb (EAX, ESI, 0));
    I (Storeb (EDI, 0, EAX));
    I (Add_ri (ESI, 1));
    I (Add_ri (EDI, 1));
    I (Add_ri (ECX, -1));
    I (Jmp (Lbl (tag ^ "_copy")));
    L (tag ^ "_end");
  ]

(* setjmp/longjmp over a 12-byte jmp_buf: saved eip, esp, ebp.
   setjmp: ebx = buf, returns 0. longjmp: ebx = buf, ecx = value. *)
let setjmp_longjmp =
  [
    L "setjmp";
    I (Load (EAX, ESP, 0));
    I (Store (EBX, 0, EAX));
    I (Lea (EAX, ESP, 4));
    I (Store (EBX, 4, EAX));
    I (Store (EBX, 8, EBP));
    I (Mov_ri (EAX, 0));
    I Ret;
    L "longjmp";
    I (Load (EBP, EBX, 8));
    I (Load (ESP, EBX, 4));
    I (Load (EDX, EBX, 0));
    I (Mov_rr (EAX, ECX));
    I (Jmp_r EDX);
  ]

let filler n = String.make n 'A'

(* A function whose body spans [pages] code pages: each page executes a few
   instructions and jumps to the next, so calling it fetches from every page
   — multi-page hot code, like a real binary. *)
let code_filler ~tag ~pages =
  let block i =
    let this = Fmt.str "%s_%d" tag i in
    let next = if i + 1 = pages then tag ^ "_ret" else Fmt.str "%s_%d" tag (i + 1) in
    [ Align 4096; L this ]
    @ [
        I (Mov_rr (EBX, EAX));
        I (Shl (EBX, 1));
        I (Xor (EAX, EBX));
        I (Add_ri (EAX, i + 1));
        I (Jmp (Lbl next));
      ]
  in
  [ L tag; I (Jmp (Lbl (tag ^ "_0"))) ]
  @ List.concat (List.init pages block)
  @ [ L (tag ^ "_ret"); I Ret ]

(* Stride-walk [pages] pages starting [page_offset] pages into the bss,
   writing one byte every [stride] bytes — a working-set pass. *)
let ws_walk ~tag ~bss ~page_offset ~pages ~stride =
  [
    I (Mov_ri (ECX, 0));
    L (tag ^ "_walk");
    I (Cmp_ri (ECX, pages * 4096));
    I (Jge (Lbl (tag ^ "_walk_end")));
    I (Mov_ri (EBX, bss + (page_offset * 4096)));
    I (Add (EBX, ECX));
    I (Storeb (EBX, 0, ECX));
    I (Add_ri (ECX, stride));
    I (Jmp (Lbl (tag ^ "_walk")));
    L (tag ^ "_walk_end");
  ]
