(* The attack grid beyond Table 1. Table 1 itself (every combination
   foiled under split memory, and the control: every one spawns a shell
   unprotected) is pinned by test/golden/reproduction.golden; here, benign
   runs, the NX bit, and the two other implementation mechanisms. *)

let test_benign () =
  List.iter
    (fun t ->
      List.iter
        (fun defense ->
          let outcome, out = Attack.Wilander.benign_run ~defense t in
          Alcotest.(check bool)
            (Attack.Wilander.technique_name t ^ " benign completes")
            true
            (outcome = Attack.Runner.Completed 0);
          Alcotest.(check bool) "prints DONE" true (String.length out >= 4))
        [ Defense.unprotected; Defense.split_standalone; Defense.nx ])
    Attack.Wilander.techniques

let test_nx_blocks_grid () =
  (* The execute-disable bit also stops these non-mixed-page attacks. *)
  List.iter
    (fun t ->
      let o = Attack.Wilander.run ~defense:Defense.nx t Attack.Wilander.Stack in
      Alcotest.(check bool)
        (Attack.Wilander.technique_name t ^ " blocked by nx")
        false
        (Attack.Runner.is_attack_success o))
    Attack.Wilander.techniques

let suite =
  [
    Alcotest.test_case "benign runs complete under all defenses" `Quick test_benign;
    Alcotest.test_case "nx blocks stack-injection grid" `Quick test_nx_blocks_grid;
  ]

let test_grid_under_all_mechanisms () =
  (* the full grid must be foiled by every implementation mechanism *)
  List.iter
    (fun defense ->
      List.iter
        (fun t ->
          List.iter
            (fun l ->
              let o = Attack.Wilander.run ~defense t l in
              Alcotest.(check bool)
                (Fmt.str "%s / %s under %s"
                   (Attack.Wilander.technique_name t)
                   (Attack.Wilander.location_name l)
                   (Defense.name defense))
                true (Attack.Runner.is_foiled o))
            Attack.Wilander.locations)
        Attack.Wilander.techniques)
    [ Defense.split_soft_tlb; Defense.split_dual_cr3 ]

let suite =
  suite
  @ [
      Alcotest.test_case "full grid x soft-tlb and dual-cr3" `Slow
        test_grid_under_all_mechanisms;
    ]
