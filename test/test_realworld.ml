(* The five real-world vulnerabilities of Table 2: attacks succeed on the
   unprotected kernel and are foiled under split memory. *)

module R = Attack.Realworld

let check id =
  let info = R.info id in
  let unprot = R.run ~defense:Defense.unprotected id in
  Alcotest.(check bool)
    (info.package ^ " succeeds unprotected")
    true
    (Attack.Runner.is_attack_success unprot);
  let split = R.run ~defense:Defense.split_standalone id in
  Alcotest.(check bool)
    (info.package ^ " foiled under split")
    true
    (Attack.Runner.is_foiled split)

let test_apache () = check R.Apache_ssl
let test_bind () = check R.Bind
let test_proftpd () = check R.Proftpd
let test_samba () = check R.Samba
let test_wuftpd () = check R.Wuftpd

let test_samba_brute_force () =
  (* Unprotected: brute force needs more than one attempt (randomization),
     but eventually lands in the sled. *)
  let r = R.run_samba ~defense:Defense.unprotected () in
  Alcotest.(check bool) "samba eventually succeeds" true
    (Attack.Runner.is_attack_success r.outcome);
  Alcotest.(check bool) "takes more than one attempt" true (r.attempts > 1)

let test_wuftpd_two_stage () =
  let outcome, s = R.run_wuftpd ~defense:Defense.unprotected () in
  Alcotest.(check bool) "shell spawned" true (Attack.Runner.is_attack_success outcome);
  (* The two-stage payload wrote its magic and the interactive shell ran. *)
  let log = Kernel.Os.log s.k in
  Alcotest.(check bool) "execve logged" true (Kernel.Event_log.shell_spawned log)

let suite =
  [
    Alcotest.test_case "apache+openssl heap overflow" `Quick test_apache;
    Alcotest.test_case "bind tsig stack overflow" `Quick test_bind;
    Alcotest.test_case "proftpd ascii translation" `Quick test_proftpd;
    Alcotest.test_case "samba trans2open (brute force)" `Quick test_samba;
    Alcotest.test_case "wuftpd globbing (two-stage)" `Quick test_wuftpd;
    Alcotest.test_case "samba brute force behaviour" `Quick test_samba_brute_force;
    Alcotest.test_case "wuftpd two-stage detail" `Quick test_wuftpd_two_stage;
  ]

(* Benign clients: the five servers must serve correct traffic unharmed
   under every defense — protection must be transparent to honest use. *)
let benign_defenses =
  [ Defense.unprotected; Defense.nx; Defense.split_standalone; Defense.split_soft_tlb;
    Defense.split_dual_cr3 ]

let check_benign name drive =
  List.iter
    (fun defense ->
      let ok = drive defense in
      Alcotest.(check bool) (Fmt.str "%s benign under %s" name (Defense.name defense)) true ok)
    benign_defenses

let completed (s : Attack.Runner.session) =
  match Attack.Runner.outcome s with Attack.Runner.Completed 0 -> true | _ -> false

let test_benign_apache () =
  check_benign "apache" (fun defense ->
      let s = Attack.Runner.start ~defense (R.victim R.Apache_ssl) in
      ignore (Attack.Runner.recv s);
      (* a correctly sized master key: len 16 *)
      Attack.Runner.send s ("\016" ^ String.make 16 'K');
      ignore (Attack.Runner.step s);
      completed s)

let test_benign_bind () =
  check_benign "bind" (fun defense ->
      let s = Attack.Runner.start ~defense (R.victim R.Bind) in
      Attack.Runner.send s "query: a.example\n";
      ignore (Attack.Runner.recv s);
      Attack.Runner.send s "small tsig\n";
      ignore (Attack.Runner.step s);
      completed s)

let test_benign_proftpd () =
  check_benign "proftpd" (fun defense ->
      let s = Attack.Runner.start ~defense (R.victim R.Proftpd) in
      ignore (Attack.Runner.recv s);
      (* short file, a couple of newlines to translate, NUL-terminated *)
      Attack.Runner.send s "line1\nline2\n\000";
      ignore (Attack.Runner.step s);
      completed s)

let test_benign_samba_wuftpd () =
  check_benign "samba" (fun defense ->
      let s = Attack.Runner.start ~defense (R.victim R.Samba) in
      Attack.Runner.send s "TRANS2 normal request\n";
      ignore (Attack.Runner.step s);
      completed s);
  check_benign "wuftpd" (fun defense ->
      let s = Attack.Runner.start ~defense (R.victim R.Wuftpd) in
      ignore (Attack.Runner.recv s);
      Attack.Runner.send s "*.txt\n";
      ignore (Attack.Runner.step s);
      completed s)

let suite =
  suite
  @ [
      Alcotest.test_case "benign apache traffic, all defenses" `Quick test_benign_apache;
      Alcotest.test_case "benign bind traffic, all defenses" `Quick test_benign_bind;
      Alcotest.test_case "benign proftpd traffic, all defenses" `Quick test_benign_proftpd;
      Alcotest.test_case "benign samba/wuftpd traffic, all defenses" `Quick
        test_benign_samba_wuftpd;
    ]
