open Isa.Asm
open Isa.Reg

type t = {
  name : string;
  descr : string;
  defense : Defense.t;
  start : ?obs:Obs.t -> unit -> Kernel.Os.t;
}

(* A benign server-ish workload: a load/modify/store loop over the data
   segment, a console write, then a clean exit. Long enough (~2500 insns)
   that a default-fuel checkpoint lands mid-loop. *)
let benign_image () =
  Kernel.Image.build ~name:"benign-loop"
    ~data:(fun ~lbl:_ -> [ L "buf"; Bytes "tick"; Space 60 ])
    ~code:(fun ~lbl ->
      [
        L "main";
        I (Mov_ri (ECX, 600));
        I (Mov_ri (EBX, lbl "buf"));
        L "loop";
        I (Load (EAX, EBX, 0));
        I (Add_ri (EAX, 3));
        I (Store (EBX, 0, EAX));
        I (Add_ri (ECX, -1));
        I (Cmp_ri (ECX, 0));
        I (Jnz (Lbl "loop"));
      ]
      @ Guest.sys_write_imm ~buf:(lbl "buf") ~len:4 ()
      @ Guest.sys_exit 0)
    ~entry:"main" ()

(* The injection victim: read attacker bytes into a writable data-segment
   buffer, spin a little (so mid-run checkpoints land before detonation),
   then jump into the buffer — the classic injected-code detonation the
   split defense intercepts at the first fetched byte. *)
let victim_image () =
  Kernel.Image.build ~name:"inject-victim"
    ~data:(fun ~lbl:_ -> [ L "buf"; Space 128 ])
    ~code:(fun ~lbl ->
      (L "main" :: Guest.sys_read_imm ~buf:(lbl "buf") ~len:128)
      @ [
          I (Mov_ri (ECX, 500));
          L "spin";
          I (Add_ri (ECX, -1));
          I (Cmp_ri (ECX, 0));
          I (Jnz (Lbl "spin"));
          I (Mov_ri (ESI, lbl "buf"));
          I (Jmp_r ESI);
        ])
    ~entry:"main" ()

let victim = victim_image ()
let payload_landing = Hashtbl.find victim.labels "buf"

(* execve("/bin/sh") + exit, assembled for the landing address, with a
   trailing NOP so the payload ends on a nonzero byte: the code copy the
   diff runs against is zero-filled, and a zero tail would be invisible to
   it. Interior zero runs (imm32 operands, the "/bin/sh" terminator) stay
   within Forensics.gap_tolerance. *)
let injected_payload =
  Attack.Shellcode.execve_bin_sh ~sled:8 ~base:payload_landing () ^ "\x90"

let start_with ~defense ~image ~input ?obs () =
  let s = Attack.Runner.start ~defense ?obs image in
  Option.iter (Attack.Runner.send s) input;
  s.k

let attack ~name ~descr ~response =
  let defense = Defense.split_with ~response () in
  {
    name;
    descr;
    defense;
    start =
      (fun ?obs () ->
        start_with ~defense ~image:victim ~input:(Some injected_payload) ?obs ());
  }

(* Code-reuse scenarios: the same snapshot/replay machinery pointed at
   attacks that never inject a byte. The exploit input is fully
   self-driving (the text layout is static, so no leak step), which lets
   a checkpoint land anywhere — including between corruption and
   detonation — and still reach the same verdict. *)
let reuse ~name ~descr ~defense attack =
  {
    name;
    descr;
    defense;
    start =
      (fun ?obs () ->
        let img = Reuse.Victim.image () in
        let input = Reuse.Campaign.packet img attack in
        start_with ~defense ~image:img ~input:(Some input) ?obs ());
  }

let all =
  [
    (let defense = Defense.split_standalone in
     {
       name = "benign";
       descr = "compute/IO loop under full split memory, no attack";
       defense;
       start =
         (fun ?obs () ->
           start_with ~defense ~image:(benign_image ()) ~input:None ?obs ());
     });
    attack ~name:"attack-break" ~descr:"shellcode injection, Break response"
      ~response:Split_memory.Response.Break;
    attack ~name:"attack-forensics"
      ~descr:"shellcode injection, Forensics response"
      ~response:(Split_memory.Response.Forensics { payload = None });
    attack ~name:"attack-observe"
      ~descr:"shellcode injection, Observe response with Sebek tracing"
      ~response:(Split_memory.Response.Observe { sebek = true });
    reuse ~name:"reuse-rop"
      ~descr:"ROP chain under split memory alone — escapes (paper §7)"
      ~defense:Defense.split_standalone Reuse.Campaign.Rop_chain;
    reuse ~name:"reuse-rop-cfi"
      ~descr:"the same ROP chain under split memory + CFI — detected"
      ~defense:Defense.split_plus_cfi Reuse.Campaign.Rop_chain;
    reuse ~name:"reuse-fptr-cfi"
      ~descr:"function-pointer clobber into existing text under CFI alone"
      ~defense:Defense.cfi Reuse.Campaign.Fptr_clobber;
    (* Scale-out: 10k identical protected guests sharing their image
       frames (loader COW). Exercises indexed wakeups, the children index
       and refcounted shared frames across snapshot/replay — a mid-run
       checkpoint here serializes the whole 10k-process machine. Under the
       mixed-only split policy nothing in this guest splits, so the image
       frames stay fully shared and the machine's private footprint is
       per-process stacks only. *)
    (let defense = Defense.split_mixed_plus_nx in
     {
       name = "scale";
       descr = "10k identical COW-shared guests under split memory + NX";
       defense;
       start =
         (fun ?obs () ->
           let k =
             Kernel.Os.create ?obs ~frames:32768 ~share_images:true
               ~protection:(Defense.to_protection defense) ()
           in
           let img = Workload.Guests.scale_unit ~rounds:2 () in
           for _ = 1 to 10_000 do
             ignore (Kernel.Os.spawn k img : Kernel.Proc.t)
           done;
           k);
     });
  ]

let names = List.map (fun s -> s.name) all
let find name = List.find_opt (fun s -> s.name = name) all
