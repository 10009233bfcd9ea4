(* Unit tests for the supporting modules: report rendering, the event log,
   disassembler, guest fragments, address-space plumbing, layout sanity,
   cost accounting. *)

(* --- Report ---------------------------------------------------------------- *)

let test_report_table () =
  let s =
    Report.table ~title:"T" ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  Alcotest.(check bool) "has title" true (Astring_contains.contains s "T");
  Alcotest.(check bool) "has rule" true (Astring_contains.contains s "+-----+");
  Alcotest.(check bool) "pads cells" true (Astring_contains.contains s "| 333 | 4  |")

let test_report_bars () =
  let s = Report.bars ~width:10 ~title:"B" [ ("x", 0.5); ("longer", 1.0) ] in
  Alcotest.(check bool) "value printed" true (Astring_contains.contains s "0.50");
  Alcotest.(check bool) "clamps nan" true
    (Astring_contains.contains (Report.bars ~title:"n" [ ("v", Float.nan) ]) "0.00");
  Alcotest.(check string) "percent" "90%" (Report.percent 0.9)

(* --- Event log -------------------------------------------------------------- *)

let test_event_log () =
  let log = Kernel.Event_log.create () in
  Alcotest.(check bool) "empty" true (Kernel.Event_log.to_list log = []);
  Kernel.Event_log.add log (Kernel.Event_log.Exec_shell { pid = 3; path = "/bin/sh" });
  Kernel.Event_log.note log "custom %d" 7;
  Alcotest.(check bool) "shell" true (Kernel.Event_log.shell_spawned log);
  Alcotest.(check int) "count" 2 (Kernel.Event_log.count log (fun _ -> true));
  (* order is oldest-first *)
  (match Kernel.Event_log.to_list log with
  | [ Kernel.Event_log.Exec_shell _; Kernel.Event_log.Note "custom 7" ] -> ()
  | _ -> Alcotest.fail "ordering");
  Kernel.Event_log.add log
    (Kernel.Event_log.Injection_detected { pid = 3; eip = 0x1000; mode = "break" });
  Alcotest.(check (list (triple int int string))) "detections" [ (3, 0x1000, "break") ]
    (Kernel.Event_log.detections log)

(* --- Disassembler ----------------------------------------------------------- *)

let test_disasm_region_recovers () =
  (* an invalid byte advances by one and decoding resumes *)
  let bytes = "\xFF" ^ Isa.Encode.to_string Isa.Insn.Nop ^ Isa.Encode.to_string Isa.Insn.Ret in
  let lines = Isa.Disasm.region bytes ~pos:0 ~len:(String.length bytes) in
  match lines with
  | [ (0, Error (Isa.Decode.Bad_opcode 0xFF)); (1, Ok Isa.Insn.Nop); (2, Ok Isa.Insn.Ret) ]
    ->
    ()
  | _ -> Alcotest.failf "unexpected sweep (%d lines)" (List.length lines)

let test_hex_dump () =
  let s = Isa.Disasm.hex_dump "\x00\x90\xFF" ~pos:0 ~len:3 in
  Alcotest.(check bool) "bytes shown" true (Astring_contains.contains s "00 90 ff")

(* --- Guest fragments --------------------------------------------------------- *)

let test_code_filler_spans_pages () =
  let prog = Isa.Asm.[ L "start"; I Nop ] @ Guest.code_filler ~tag:"f" ~pages:3 in
  let a = Isa.Asm.assemble ~origin:0 prog in
  let page l = Isa.Asm.label a l / 4096 in
  Alcotest.(check bool) "blocks on distinct pages" true
    (page "f_0" <> page "f_1" && page "f_1" <> page "f_2")

(* --- Aspace ------------------------------------------------------------------ *)

let test_aspace_regions_and_content () =
  let aspace = Kernel.Aspace.create ~page_size:4096 in
  let region : Kernel.Aspace.region =
    {
      lo = 16;
      hi = 18;
      kind = Kernel.Pte.Data;
      writable = true;
      execable = false;
      source = Kernel.Aspace.Image_bytes { base = (16 * 4096) + 10; bytes = "HELLO" };
      share = None;
    }
  in
  Kernel.Aspace.add_region aspace region;
  Alcotest.(check bool) "find hit" true (Kernel.Aspace.find_region aspace 17 <> None);
  Alcotest.(check bool) "find miss" true (Kernel.Aspace.find_region aspace 18 = None);
  let content = Kernel.Aspace.page_content aspace region 16 in
  Alcotest.(check int) "page-sized" 4096 (String.length content);
  Alcotest.(check string) "offset blit" "HELLO" (String.sub content 10 5);
  Alcotest.(check char) "zero fill" '\000' content.[0];
  (* second page of the region holds nothing of the 5-byte source *)
  let content2 = Kernel.Aspace.page_content aspace region 17 in
  Alcotest.(check string) "empty page" (String.make 4096 '\000') content2

(* --- Layout ------------------------------------------------------------------- *)

let test_layout_disjoint () =
  let spans =
    [
      ("code", Kernel.Layout.code_base, Kernel.Layout.rodata_base);
      ("rodata", Kernel.Layout.rodata_base, Kernel.Layout.data_base);
      ("data", Kernel.Layout.data_base, Kernel.Layout.bss_base);
      ("bss", Kernel.Layout.bss_base, Kernel.Layout.mixed_base);
      ("mixed", Kernel.Layout.mixed_base, Kernel.Layout.heap_base);
      ("heap", Kernel.Layout.heap_base, Kernel.Layout.heap_limit);
      ("lib", Kernel.Layout.lib_base, Kernel.Layout.mmap_base);
      ("mmap", Kernel.Layout.mmap_base, Kernel.Layout.mmap_limit);
      ( "stack",
        Kernel.Layout.stack_top - Kernel.Layout.stack_max_bytes,
        Kernel.Layout.stack_top );
    ]
  in
  List.iter (fun (n, lo, hi) -> Alcotest.(check bool) (n ^ " nonempty") true (lo < hi)) spans;
  (* pairwise disjoint *)
  List.iteri
    (fun i (n1, lo1, hi1) ->
      List.iteri
        (fun j (n2, lo2, hi2) ->
          if i < j then
            Alcotest.(check bool)
              (Fmt.str "%s and %s disjoint" n1 n2)
              true
              (hi1 <= lo2 || hi2 <= lo1))
        spans)
    spans;
  Alcotest.(check bool) "esp inside stack" true
    (Kernel.Layout.initial_esp > Kernel.Layout.stack_top - Kernel.Layout.stack_max_bytes
    && Kernel.Layout.initial_esp < Kernel.Layout.stack_top)

(* --- Cost accounting ------------------------------------------------------------ *)

let test_cost_counters () =
  let c = Hw.Cost.create () in
  Hw.Cost.charge_insn c;
  Hw.Cost.charge_trap c;
  Hw.Cost.charge_split_pf c;
  Hw.Cost.charge_single_step c;
  Hw.Cost.charge_syscall c;
  Hw.Cost.charge_ctx_switch c;
  Hw.Cost.charge c 5;
  let p = c.params in
  Alcotest.(check int) "cycles are the sum"
    (p.insn + p.trap + p.split_pf_service + p.single_step_service + p.syscall
   + p.ctx_switch + 5)
    c.cycles;
  Alcotest.(check int) "insns" 1 c.insns;
  Alcotest.(check int) "traps" 1 c.traps;
  Alcotest.(check int) "split" 1 c.split_faults;
  Alcotest.(check int) "ss" 1 c.single_steps;
  Alcotest.(check int) "sys" 1 c.syscalls;
  Alcotest.(check int) "ctxsw" 1 c.ctx_switches

(* --- Pte ------------------------------------------------------------------------- *)

let test_pte_views () =
  let pte = Kernel.Pte.make ~vpn:3 ~kind:Kernel.Pte.Heap ~frame:9 ~writable:true in
  Alcotest.(check int) "code=data=frame when unsplit" 9 (Kernel.Pte.code_frame pte);
  pte.split <- Some { code_frame = 10; data_frame = 11; locked_to_data = false };
  Alcotest.(check int) "code copy" 10 (Kernel.Pte.code_frame pte);
  Alcotest.(check int) "data copy" 11 (Kernel.Pte.data_frame pte);
  (Option.get pte.split).locked_to_data <- true;
  Alcotest.(check int) "locked: fetches reach data" 11 (Kernel.Pte.code_frame pte);
  Kernel.Pte.restrict pte;
  Alcotest.(check bool) "restricted" false (Kernel.Pte.word pte land Hw.Tlb.pte_user <> 0)

let suite =
  [
    Alcotest.test_case "report table" `Quick test_report_table;
    Alcotest.test_case "report bars" `Quick test_report_bars;
    Alcotest.test_case "event log semantics" `Quick test_event_log;
    Alcotest.test_case "disasm linear sweep recovery" `Quick test_disasm_region_recovers;
    Alcotest.test_case "hex dump" `Quick test_hex_dump;
    Alcotest.test_case "code_filler spans pages" `Quick test_code_filler_spans_pages;
    Alcotest.test_case "aspace regions and page content" `Quick test_aspace_regions_and_content;
    Alcotest.test_case "layout spans disjoint" `Quick test_layout_disjoint;
    Alcotest.test_case "cost counters" `Quick test_cost_counters;
    Alcotest.test_case "pte copy views" `Quick test_pte_views;
  ]
