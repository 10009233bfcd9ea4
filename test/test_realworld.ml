(* The five real-world vulnerabilities of Table 2. The table itself (each
   exploit succeeds unprotected and is foiled under split memory) and
   Ablation E's samba brute force are pinned by
   test/golden/reproduction.golden; here, the WU-FTPD two-stage payload
   and benign traffic. *)

module R = Attack.Realworld

let test_wuftpd_two_stage () =
  let outcome, s = R.run_wuftpd ~defense:Defense.unprotected () in
  Alcotest.(check bool) "shell spawned" true (Attack.Runner.is_attack_success outcome);
  (* The two-stage payload wrote its magic and the interactive shell ran. *)
  let log = Kernel.Os.log s.k in
  Alcotest.(check bool) "execve logged" true (Kernel.Event_log.shell_spawned log)

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
  [
    Alcotest.test_case "wuftpd two-stage detail" `Quick test_wuftpd_two_stage;
    Alcotest.test_case "benign apache traffic, all defenses" `Quick test_benign_apache;
    Alcotest.test_case "benign bind traffic, all defenses" `Quick test_benign_bind;
    Alcotest.test_case "benign proftpd traffic, all defenses" `Quick test_benign_proftpd;
    Alcotest.test_case "benign samba/wuftpd traffic, all defenses" `Quick
      test_benign_samba_wuftpd;
  ]
