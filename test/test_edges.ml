(* Syscall and API edge cases, plus subtler split-memory behaviours. *)

open Isa.Asm

let run_code ?(protection = Kernel.Protection.none) code =
  let image = Kernel.Image.build ~name:"edge" ~code ~entry:"main" () in
  let k = Kernel.Os.create ~protection () in
  let p = Kernel.Os.spawn k image in
  let reason = Kernel.Os.run k in
  (k, p, reason)

let exit_code (p : Kernel.Proc.t) =
  match p.state with
  | Kernel.Proc.Zombie (Kernel.Proc.Exited n) -> n
  | s -> Alcotest.failf "not exited: %a" Kernel.Proc.pp_state s

(* read/write on bad or wrong-direction fds return -EBADF and execution
   continues *)
let test_bad_fd () =
  let _, p, _ =
    run_code (fun ~lbl:_ ->
        [
          L "main";
          (* read(7, ...) -> -9 *)
          I (Mov_ri (EAX, 3));
          I (Mov_ri (EBX, 7));
          I (Mov_ri (ECX, Kernel.Layout.heap_base));
          I (Mov_ri (EDX, 4));
          I (Int 0x80);
          I (Cmp_ri (EAX, -9));
          I (Jnz (Lbl "bad"));
          (* write(0, ...) -> -9 : fd 0 is a read end *)
          I (Mov_ri (EAX, 4));
          I (Mov_ri (EBX, 0));
          I (Mov_ri (ECX, Kernel.Layout.heap_base));
          I (Mov_ri (EDX, 4));
          I (Int 0x80);
          I (Cmp_ri (EAX, -9));
          I (Jnz (Lbl "bad"));
        ]
        @ Guest.sys_exit 0
        @ (L "bad" :: Guest.sys_exit 1))
  in
  Alcotest.(check int) "both EBADF" 0 (exit_code p)

let test_close_twice_and_waitpid_no_children () =
  let _, p, _ =
    run_code (fun ~lbl:_ ->
        [
          L "main";
          I (Mov_ri (EAX, 6));
          I (Mov_ri (EBX, 1));
          I (Int 0x80);
          (* close(1) ok *)
          I (Cmp_ri (EAX, 0));
          I (Jnz (Lbl "bad"));
          I (Mov_ri (EAX, 6));
          I (Mov_ri (EBX, 1));
          I (Int 0x80);
          (* second close -> -9 *)
          I (Cmp_ri (EAX, -9));
          I (Jnz (Lbl "bad"));
          I (Mov_ri (EAX, 7));
          I (Mov_ri (EBX, 0));
          I (Int 0x80);
          (* waitpid with no children -> -10 *)
          I (Cmp_ri (EAX, -10));
          I (Jnz (Lbl "bad"));
        ]
        @ Guest.sys_exit 0
        @ (L "bad" :: Guest.sys_exit 1))
  in
  Alcotest.(check int) "edge returns" 0 (exit_code p)

let test_brk_out_of_range () =
  let _, p, _ =
    run_code (fun ~lbl:_ ->
        [
          L "main";
          I (Mov_ri (EAX, 45));
          I (Mov_ri (EBX, 0x100));
          (* below heap_base *)
          I (Int 0x80);
          I (Cmp_ri (EAX, -12));
          I (Jnz (Lbl "bad"));
        ]
        @ Guest.sys_exit 0
        @ (L "bad" :: Guest.sys_exit 1))
  in
  Alcotest.(check int) "brk ENOMEM" 0 (exit_code p)

let test_efault_syscall () =
  (* write() from an unmapped address fails with -EFAULT, process lives *)
  let _, p, _ =
    run_code (fun ~lbl:_ ->
        [
          L "main";
          I (Mov_ri (EAX, 4));
          I (Mov_ri (EBX, 1));
          I (Mov_ri (ECX, 0x30000000));
          I (Mov_ri (EDX, 4));
          I (Int 0x80);
          I (Cmp_ri (EAX, -14));
          I (Jnz (Lbl "bad"));
        ]
        @ Guest.sys_exit 0
        @ (L "bad" :: Guest.sys_exit 1))
  in
  Alcotest.(check int) "EFAULT" 0 (exit_code p)

(* Observe mode with shellcode spanning two pages: each page is detected
   and locked independently — the paper's "only the first execution on a
   given page is logged" per-page semantics. *)
let test_observe_two_pages () =
  let image =
    Kernel.Image.build ~name:"twopage"
      ~data:(fun ~lbl:_ -> [ L "pad"; Space 4000; L "buf"; Space 4096 ])
      ~code:(fun ~lbl ->
        (L "main" :: Guest.sys_read_imm ~buf:(lbl "buf") ~len:512)
        @ [ I (Mov_ri (ESI, lbl "buf")); I (Jmp_r ESI) ])
      ~entry:"main" ()
  in
  let buf = Kernel.Image.label image "buf" in
  let page_end = ((buf / 4096) + 1) * 4096 in
  let sled = page_end - buf in
  (* nop sled across the boundary, execve on the second page *)
  let payload =
    String.make sled '\x90' ^ Attack.Shellcode.execve_bin_sh ~sled:4 ~base:page_end ()
  in
  let defense =
    Defense.split_with ~response:(Split_memory.Response.Observe { sebek = false }) ()
  in
  let s = Attack.Runner.start ~defense image in
  ignore (Attack.Runner.step s);
  Attack.Runner.send s payload;
  ignore (Attack.Runner.step s);
  Alcotest.(check bool) "shell spawned" true
    (Kernel.Event_log.shell_spawned (Kernel.Os.log s.k));
  Alcotest.(check int) "two detections: one per page" 2 s.victim.detections

let test_forensics_trail_event () =
  let image =
    Kernel.Image.build ~name:"trail"
      ~data:(fun ~lbl:_ -> [ L "buf"; Space 64 ])
      ~code:(fun ~lbl ->
        (L "main" :: Guest.sys_read_imm ~buf:(lbl "buf") ~len:64)
        @ [ I (Mov_ri (ESI, lbl "buf")); I (Jmp_r ESI) ])
      ~entry:"main" ()
  in
  let defense =
    Defense.split_with ~response:(Split_memory.Response.Forensics { payload = None }) ()
  in
  let s = Attack.Runner.start ~defense image in
  ignore (Attack.Runner.step s);
  Attack.Runner.send s "\x90\x90\x90\x90";
  ignore (Attack.Runner.step s);
  match
    Kernel.Event_log.find_first (Kernel.Os.log s.k) (function
      | Kernel.Event_log.Execution_trail _ -> true
      | _ -> false)
  with
  | Some (Kernel.Event_log.Execution_trail { eips; _ }) ->
    Alcotest.(check bool) "trail nonempty" true (eips <> []);
    (* the last recorded instruction is the hijacked jump *)
    let last = List.nth eips (List.length eips - 1) in
    Alcotest.(check bool) "trail ends in victim code" true
      (last >= Kernel.Layout.code_base && last < Kernel.Layout.code_base + 4096)
  | _ -> Alcotest.fail "no trail event"

let test_mmap_exhaustion () =
  (* mmap until the window is exhausted: must return -ENOMEM, not wrap *)
  let _, p, _ =
    run_code (fun ~lbl:_ ->
        [
          L "main";
          I (Mov_ri (EDI, 0));
          L "loop";
          I (Mov_ri (EAX, 90));
          I (Mov_ri (EBX, 0x1000000));
          (* 16MB each *)
          I (Mov_ri (ECX, 3));
          I (Int 0x80);
          I (Cmp_ri (EAX, -12));
          I (Jz (Lbl "done"));
          I (Add_ri (EDI, 1));
          I (Cmp_ri (EDI, 64));
          I (Jl (Lbl "loop"));
          (* never saw ENOMEM: fail *)
          I (Mov_ri (EBX, 1));
          I (Mov_ri (EAX, 1));
          I (Int 0x80);
          L "done";
        ]
        @ Guest.sys_exit 0)
  in
  Alcotest.(check int) "ENOMEM eventually" 0 (exit_code p)

let test_image_unknown_label () =
  match
    Kernel.Image.build ~name:"bad"
      ~code:(fun ~lbl -> [ L "main"; I (Mov_ri (EAX, lbl "missing")) ])
      ~entry:"main" ()
  with
  | exception Kernel.Image.Unknown_label "missing" -> ()
  | _ -> Alcotest.fail "expected Unknown_label"

let test_image_duplicate_cross_segment () =
  match
    Kernel.Image.build ~name:"dup"
      ~data:(fun ~lbl:_ -> [ L "x"; Word32 0 ])
      ~code:(fun ~lbl:_ -> [ L "main"; L "x"; I Ret ])
      ~entry:"main" ()
  with
  | exception Isa.Asm.Duplicate_label "x" -> ()
  | _ -> Alcotest.fail "expected Duplicate_label"

(* The Sebek trace of observe mode, pinned byte for byte. After detection
   the injected code writes and reads payloads longer than the 40-byte
   preview (so the "..." cut shows), holding quotes, backslashes and
   control bytes (so the '.' mapping and the %S escaping show), then
   sleeps and exits. *)
let sebek_out = "say \"hi\" \\ \x01\x7f\tthen some text that runs past forty bytes"
let sebek_in = "got \"it\"\\\x02\x1b[0m and a tail long enough to be cut"

let test_sebek_trace_bytes () =
  let image =
    Kernel.Image.build ~name:"sebek"
      ~data:(fun ~lbl:_ -> [ L "buf"; Space 512 ])
      ~code:(fun ~lbl ->
        (L "main" :: Guest.sys_read_imm ~buf:(lbl "buf") ~len:512)
        @ [ I (Mov_ri (ESI, lbl "buf")); I (Jmp_r ESI) ])
      ~entry:"main" ()
  in
  let shellcode =
    Attack.Shellcode.with_layout ~base:(Kernel.Image.label image "buf") (fun lbl ->
        Guest.sys_write_imm ~buf:(lbl "out") ~len:(String.length sebek_out) ()
        @ Guest.sys_read_imm ~buf:(lbl "in") ~len:128
        @ [ I (Mov_ri (EAX, 162)); I (Mov_ri (EBX, 100)); I (Int 0x80) ]
        @ Guest.sys_exit 0
        @ [ L "out"; Bytes sebek_out; L "in"; Space 128 ])
  in
  let defense =
    Defense.split_with ~response:(Split_memory.Response.Observe { sebek = true }) ()
  in
  let s = Attack.Runner.start ~defense image in
  ignore (Attack.Runner.step s);
  Attack.Runner.send s shellcode;
  ignore (Attack.Runner.step s);
  Attack.Runner.send s sebek_in;
  ignore (Attack.Runner.step s);
  let traced =
    List.filter_map
      (function
        | Kernel.Event_log.Syscall_traced { pid; name; info } -> Some (pid, name, info)
        | _ -> None)
      (Kernel.Event_log.to_list (Kernel.Os.log s.k))
  in
  let pid = s.victim.pid in
  Alcotest.(check (list (triple int string string)))
    "Syscall_traced entries"
    [
      (pid, "write", {|fd=1 "say \"hi\" \\ ...then some text that runs p..."|});
      (pid, "read", {|fd=0 "got \"it\"\\..[0m and a tail long enough to..."|});
      (pid, "nanosleep", "100 cycles");
      (pid, "exit", "0");
    ]
    traced;
  Alcotest.(check string) "the write reached stdout" sebek_out
    (Kernel.Os.read_stdout s.k s.victim)

(* read/write on a buffer that starts on a mapped page and runs onto an
   unmapped one (mmap's guard page). [write] checks every page before it
   enqueues a byte, so the pipe stays untouched; [read] consumes first,
   then copies up to the fault, so the mapped part sees the data and the
   consumed bytes are gone. Both return -EFAULT. *)
let test_efault_page_edge () =
  let image =
    Kernel.Image.build ~name:"edge-efault"
      ~code:(fun ~lbl:_ ->
        [
          L "main";
          (* mmap(4096, rw): one page, then an unmapped guard page *)
          I (Mov_ri (EAX, 90));
          I (Mov_ri (EBX, 4096));
          I (Mov_ri (ECX, 3));
          I (Int 0x80);
          I (Lea (EBP, EAX, 4096 - 16));
          (* write(1, page_end - 16, 32) *)
          I (Mov_ri (EAX, 4));
          I (Mov_ri (EBX, 1));
          I (Mov_rr (ECX, EBP));
          I (Mov_ri (EDX, 32));
          I (Int 0x80);
          I (Mov_rr (EDI, EAX));
          (* read(0, page_end - 16, 32) *)
          I (Mov_ri (EAX, 3));
          I (Mov_ri (EBX, 0));
          I (Mov_rr (ECX, EBP));
          I (Mov_ri (EDX, 32));
          I (Int 0x80);
          I (Mov_rr (ESI, EAX));
          L "spin";
          I (Jmp (Lbl "spin"));
        ])
      ~entry:"main" ()
  in
  let input = String.init 64 (fun i -> Char.chr (0x41 + (i mod 26))) in
  List.iter
    (fun defense ->
      let name = Defense.name defense in
      let k = Kernel.Os.create ~protection:(Defense.to_protection defense) () in
      let p = Kernel.Os.spawn k image in
      ignore (Kernel.Os.feed_stdin k p input : int);
      Alcotest.(check bool) (name ^ ": spins to the fuel limit") true
        (Kernel.Os.run ~fuel:5_000 k = Kernel.Os.Fuel_exhausted);
      let reg r = Hw.Cpu.sign32 (Hw.Cpu.get p.regs r) in
      Alcotest.(check int) (name ^ ": write returns -EFAULT") (-14) (reg EDI);
      Alcotest.(check int) (name ^ ": write left the pipe untouched") 0
        (Kernel.Pipe.level p.console_out);
      Alcotest.(check int) (name ^ ": read returns -EFAULT") (-14) (reg ESI);
      Alcotest.(check int) (name ^ ": read consumed its 32 bytes") 32
        (Kernel.Pipe.level p.console_in);
      Alcotest.(check string) (name ^ ": the mapped part holds the first 16 bytes")
        (String.sub input 0 16)
        (Kernel.Os.copy_from_user k p (Hw.Cpu.get p.regs EBP) 16);
      Alcotest.(check string) (name ^ ": the rest of stdin is intact")
        (String.sub input 32 32)
        (Kernel.Pipe.drain p.console_in))
    [ Defense.unprotected; Defense.split_standalone ]

let suite =
  [
    Alcotest.test_case "read/write on bad fds" `Quick test_bad_fd;
    Alcotest.test_case "double close, waitpid w/o children" `Quick
      test_close_twice_and_waitpid_no_children;
    Alcotest.test_case "brk out of range" `Quick test_brk_out_of_range;
    Alcotest.test_case "syscall EFAULT" `Quick test_efault_syscall;
    Alcotest.test_case "syscall EFAULT across a page edge" `Quick test_efault_page_edge;
    Alcotest.test_case "observe: Sebek trace bytes" `Quick test_sebek_trace_bytes;
    Alcotest.test_case "observe: per-page detection (2 pages)" `Quick test_observe_two_pages;
    Alcotest.test_case "forensics execution trail" `Quick test_forensics_trail_event;
    Alcotest.test_case "mmap window exhaustion" `Quick test_mmap_exhaustion;
    Alcotest.test_case "image: unknown label" `Quick test_image_unknown_label;
    Alcotest.test_case "image: cross-segment duplicate label" `Quick
      test_image_duplicate_cross_segment;
  ]

let test_deadlock_detected () =
  (* two processes each blocked reading the other's silence: All_blocked *)
  let reader () =
    Kernel.Image.build ~name:"mute"
      ~data:(fun ~lbl:_ -> [ L "b"; Space 8 ])
      ~code:(fun ~lbl ->
        (L "main" :: Guest.sys_read_imm ~buf:(lbl "b") ~len:4) @ Guest.sys_exit 0)
      ~entry:"main" ()
  in
  let k = Kernel.Os.create ~protection:Kernel.Protection.none () in
  let a = Kernel.Os.spawn k (reader ()) in
  let b = Kernel.Os.spawn k (reader ()) in
  Kernel.Os.connect k a b;
  Alcotest.(check bool) "deadlock reported" true (Kernel.Os.run k = Kernel.Os.All_blocked)

let suite =
  suite @ [ Alcotest.test_case "cross-read deadlock detected" `Quick test_deadlock_detected ]
