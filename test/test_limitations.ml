(* The §7 limitations must reproduce exactly: split memory is a code-
   injection defense, not a panacea. The Limitations table pins them under
   the unprotected kernel, the NX bit and stand-alone split memory
   (test/golden/reproduction.golden); here, the soft-TLB port, the benign
   path and the per-process opt-out. *)

module L = Attack.Limitations
module R = Attack.Runner

let test_non_control_data () =
  (* the secret leaks: no injected code ever runs *)
  Alcotest.(check bool) "secret leaks under soft-tlb" true
    (L.run_non_control_data ~defense:Defense.split_soft_tlb ())

let test_non_control_data_benign () =
  (* without the overflow the flag stays clear and access is denied *)
  let s = R.start ~defense:Defense.split_standalone (L.bank_victim ()) in
  R.send s "hunter2\n";
  ignore (R.step s);
  let out = Kernel.Os.read_stdout s.k s.victim in
  Alcotest.(check bool) "denied" true (String.length out >= 4 && String.sub out 0 4 = "DENY")

let test_ret_into_code () =
  Alcotest.(check bool) "ret-into-code spawns a shell under soft-tlb" true
    (R.is_attack_success (L.run_ret_into_code ~defense:Defense.split_soft_tlb ()))

let suite =
  [
    Alcotest.test_case "non-control-data attack not stopped" `Quick test_non_control_data;
    Alcotest.test_case "non-control-data benign path" `Quick test_non_control_data_benign;
    Alcotest.test_case "return-into-existing-code not stopped" `Quick test_ret_into_code;
  ]

let test_per_process_opt_out () =
  (* §3.3.1 backwards compatibility: the SMC program opts out of splitting
     and runs correctly, while other processes on the same kernel remain
     protected. *)
  let k = Kernel.Os.create ~protection:(Defense.to_protection Defense.split_standalone) () in
  let smc = Kernel.Os.spawn ~protected:false k (L.smc_victim ()) in
  ignore (Kernel.Os.run k);
  (match smc.state with
  | Kernel.Proc.Zombie (Kernel.Proc.Exited 55) -> ()
  | st -> Alcotest.failf "opted-out smc must work: %a" Kernel.Proc.pp_state st);
  (* a protected victim on the same kernel is still defended *)
  let victim = Kernel.Os.spawn k (L.launcher_victim ()) in
  ignore victim;
  let o = Attack.Realworld.run ~defense:Defense.split_standalone Attack.Realworld.Bind in
  Alcotest.(check bool) "others still protected" true (R.is_foiled o)

let suite =
  suite
  @ [ Alcotest.test_case "per-process opt-out (S3.3.1)" `Quick test_per_process_opt_out ]

let test_opt_out_inherited_by_fork () =
  (* an opted-out (von Neumann) process's children stay opted out *)
  let image =
    Kernel.Image.build ~name:"optfork"
      ~code:(fun ~lbl:_ ->
        Isa.Asm.
          [
            L "main";
            I (Mov_ri (EAX, 2));
            I (Int 0x80);
            I (Cmp_ri (EAX, 0));
            I (Jz (Lbl "child"));
            I (Mov_rr (EBX, EAX));
            I (Mov_ri (EAX, 7));
            I (Int 0x80);
            I (Mov_ri (EBX, 0));
            I (Mov_ri (EAX, 1));
            I (Int 0x80);
            L "child";
            (* touch a fresh heap page: must not be split *)
            I (Mov_ri (EBX, Kernel.Layout.heap_base));
            I (Mov_ri (EAX, 1));
            I (Storeb (EBX, 0, EAX));
            I (Mov_ri (EBX, 0));
            I (Mov_ri (EAX, 1));
            I (Int 0x80);
          ])
      ~entry:"main" ()
  in
  let k = Kernel.Os.create ~protection:(Defense.to_protection Defense.split_standalone) () in
  let parent = Kernel.Os.spawn ~protected:false k image in
  let split_seen = ref false in
  (* run in small steps and scan children for split pages *)
  let rec drive n =
    if n = 0 then ()
    else begin
      ignore (Kernel.Os.run ~fuel:50 k);
      List.iter
        (fun (c : Kernel.Proc.t) ->
          Kernel.Aspace.iter_ptes c.aspace (fun pte ->
              if Kernel.Pte.is_split pte then split_seen := true))
        (Kernel.Os.procs k);
      drive (n - 1)
    end
  in
  drive 50;
  ignore (Kernel.Os.run k);
  Alcotest.(check bool) "no page ever split" false !split_seen;
  match parent.state with
  | Kernel.Proc.Zombie (Kernel.Proc.Exited 0) -> ()
  | st -> Alcotest.failf "parent: %a" Kernel.Proc.pp_state st

let suite =
  suite
  @ [ Alcotest.test_case "opt-out inherited across fork" `Quick test_opt_out_inherited_by_fork ]
