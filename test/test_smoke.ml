(* End-to-end smoke tests: a guest program runs identically under the stock
   kernel and under split memory. *)

open Isa.Asm

let hello_image () =
  Kernel.Image.build ~name:"hello"
    ~data:(fun ~lbl:_ -> [ L "msg"; Bytes "hello, split world\n" ])
    ~code:(fun ~lbl ->
      [
        L "main";
        I (Mov_ri (EAX, 4));
        I (Mov_ri (EBX, 1));
        I (Mov_ri (ECX, lbl "msg"));
        I (Mov_ri (EDX, 19));
        I (Int 0x80);
        I (Mov_ri (EAX, 1));
        I (Mov_ri (EBX, 7));
        I (Int 0x80);
      ])
    ~entry:"main" ()

let run_hello protection =
  let k = Kernel.Os.create ~protection () in
  let p = Kernel.Os.spawn k (hello_image ()) in
  let reason = Kernel.Os.run k in
  (k, p, reason)

let check_hello (k, p, reason) =
  Alcotest.(check string) "stop reason" "all_exited" (Snap.Replay.stop_name reason);
  Alcotest.(check string) "stdout" "hello, split world\n" (Kernel.Os.read_stdout k p);
  match p.state with
  | Kernel.Proc.Zombie (Kernel.Proc.Exited 7) -> ()
  | s -> Alcotest.failf "unexpected state %a" Kernel.Proc.pp_state s

let test_unprotected () = check_hello (run_hello Kernel.Protection.none)

let test_split_break () =
  let prot = Split_memory.protection () in
  let (k, _, _) as result = run_hello prot in
  check_hello result;
  Alcotest.(check bool)
    "split faults occurred" true
    ((Kernel.Os.cost k).split_faults > 0)

let test_split_slower () =
  let k0, _, _ = run_hello Kernel.Protection.none in
  let k1, _, _ = run_hello (Split_memory.protection ()) in
  Alcotest.(check bool) "split memory costs more cycles" true
    ((Kernel.Os.cost k1).cycles > (Kernel.Os.cost k0).cycles)

let suite =
  [
    Alcotest.test_case "hello under stock kernel" `Quick test_unprotected;
    Alcotest.test_case "hello under split memory" `Quick test_split_break;
    Alcotest.test_case "split memory is slower" `Quick test_split_slower;
  ]

(* Process isolation: an attack on one server never perturbs an unrelated
   process scheduled on the same kernel. *)
let test_attack_isolation () =
  let k = Kernel.Os.create ~protection:(Split_memory.protection ()) () in
  let victim = Kernel.Os.spawn k (Attack.Realworld.victim Attack.Realworld.Bind) in
  let bystander = Kernel.Os.spawn k (hello_image ()) in
  (* drive the bind exploit by hand against the shared kernel *)
  ignore (Kernel.Os.run k);
  ignore (Kernel.Os.feed_stdin k victim "query: x\n");
  ignore (Kernel.Os.run k);
  let leak = Kernel.Os.read_stdout k victim in
  let buf = Attack.Runner.leak_addr leak in
  let code = Attack.Shellcode.execve_bin_sh ~sled:16 ~base:buf () in
  let payload =
    code
    ^ String.make (128 - String.length code) 'A'
    ^ Attack.Shellcode.word32 buf ^ Attack.Shellcode.word32 buf
  in
  ignore (Kernel.Os.feed_stdin k victim (payload ^ "\n"));
  ignore (Kernel.Os.run k);
  (* victim foiled, bystander untouched *)
  (match victim.state with
  | Kernel.Proc.Zombie (Kernel.Proc.Killed Kernel.Proc.Sigill) -> ()
  | s -> Alcotest.failf "victim: %a" Kernel.Proc.pp_state s);
  Alcotest.(check string) "bystander output intact" "hello, split world\n"
    (Kernel.Os.read_stdout k bystander);
  match bystander.state with
  | Kernel.Proc.Zombie (Kernel.Proc.Exited 7) -> ()
  | s -> Alcotest.failf "bystander: %a" Kernel.Proc.pp_state s

let suite =
  suite
  @ [ Alcotest.test_case "attack isolation across processes" `Quick test_attack_isolation ]
