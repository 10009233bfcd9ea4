(* The paper's motivating gaps: NX is bypassable and cannot protect mixed
   pages; split memory handles both. The attack outcomes are Ablations A
   and B, pinned by test/golden/reproduction.golden; here, the mixed page's
   benign use. *)

module B = Attack.Bypass
module R = Attack.Runner

let test_mixed_page_benign () =
  (* Without an overflow, the JIT victim works under every defense —
     including split(mixed-only), which keeps the mixed page usable. *)
  List.iter
    (fun defense ->
      let image = B.jit_victim () in
      let s = R.start ~defense image in
      R.send s "short\n";
      ignore (R.step s);
      match R.outcome s with
      | R.Completed 0 -> ()
      | o -> Alcotest.failf "benign jit run: %s" (R.outcome_name o))
    [ Defense.unprotected; Defense.nx; Defense.split_mixed_plus_nx; Defense.split_standalone ]

let suite =
  [
    Alcotest.test_case "mixed page benign use survives" `Quick test_mixed_page_benign;
  ]
