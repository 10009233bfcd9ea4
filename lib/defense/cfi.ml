(* Shadow stack + coarse-grained control-flow integrity.

   Split memory (and NX) police where instruction bytes may *come from*;
   they are blind to an attacker who never injects a byte and instead
   redirects control into code the image already carries (ROP,
   return-into-libtext — the paper's §7 limitation). This module polices
   where control may *go*, in the style of the coarse-grained CFI monitors
   built on existing hardware events (kBouncer, ROPecker, ROPocop):

   - Shadow stack: every call records its return address in a
     kernel-private per-process stack; every ret must target an address the
     shadow stack holds. Popping until a match tolerates longjmp unwinding
     several frames at once; an empty shadow stack (a fresh fork child
     whose call history predates monitoring) proves nothing and falls back
     to the coarse checks.

   - Coarse checks, derived from the pristine image bytes backing the
     process's executable regions (never from runtime memory, which the
     attacker controls): a ret target must be *call-preceded*; an indirect
     call must target a function entry (the entry point, a direct-call
     target, or an address-taken constant found in text immediates or data
     words); an indirect jump must target an executable region at a
     call-preceded address (which is exactly what a longjmp resumption
     looks like) or a function entry.

   All state lives in closures created per [protection] call, i.e. per
   machine, so concurrent fleet jobs never share a shadow stack. A check
   allocates nothing: the shadow stacks are int stacks in an int table,
   and the static lookups use [Aspace.find_region_exn] (the CFI rows of
   the fig 7 ctxsw pair run call and return checks on every iteration).
   The monitor plugs into [Kernel.Protection.ctrl_monitor]; a denial surfaces
   as #GP after an [Injection_detected] event, so attack runners classify
   it as foiled-by-defense, symmetric with split memory's detections. *)

module IntSet = Set.Make (Int)

(* --- static text inspection -------------------------------------------- *)

(* The region holding [addr], or [Not_found]. *)
let region_of (proc : Kernel.Proc.t) addr =
  let asp = proc.aspace in
  Kernel.Aspace.find_region_exn asp (addr / Kernel.Aspace.page_size asp)

(* The pristine byte backing an executable address, or -1 when the
   address is not inside any executable file-backed region. The zero
   padding between a segment's bytes and its region end reads as 0. *)
let static_byte proc addr =
  match region_of proc addr with
  | { execable = true; source = Image_bytes { base; bytes }; _ } ->
    let off = addr - base in
    if off >= 0 && off < String.length bytes then Char.code bytes.[off] else 0
  | _ -> -1
  | exception Not_found -> -1

let in_text proc addr =
  match region_of proc addr with r -> r.execable | exception Not_found -> false

(* Is [target] immediately preceded by a call instruction in the static
   text? Both call encodings are checked: [call rel32] is 5 bytes with
   opcode 0x30, [call reg] is 2 bytes with opcode 0x31 and a valid
   register field. *)
let call_preceded proc target =
  static_byte proc (target - 5) = 0x30
  || static_byte proc (target - 2) = 0x31
     &&
     let r = static_byte proc (target - 1) in
     r >= 0 && r < 8

(* The index of the newest entry of [s] equal to [x], searching down from
   [i]; -1 when there is none. *)
let rec newest s x i = if i < 0 || Hw.Ints.Stack.get s i = x then i else newest s x (i - 1)

(* The set of legitimate indirect-transfer entry points of a process:
   every direct-call target, and every address-taken text address (a
   [mov reg, imm] immediate in text, or a 32-bit word anywhere in a
   file-backed data segment, that points into text). Computed once per
   process from the region map and memoized by pid. *)
let entry_points (proc : Kernel.Proc.t) =
  let asp = proc.aspace in
  let acc = ref IntSet.empty in
  let add a = if in_text proc a then acc := IntSet.add a !acc in
  List.iter
    (fun (r : Kernel.Aspace.region) ->
      match r.source with
      | Kernel.Aspace.Zero -> ()
      | Kernel.Aspace.Image_bytes { base; bytes } ->
        if r.execable then
          (* linear sweep; decode errors advance one byte, so unknown
             regions cannot derail the scan *)
          List.iter
            (fun (off, insn) ->
              match insn with
              | Ok (Isa.Insn.Call (Isa.Insn.Rel d)) -> add (base + off + 5 + d)
              | Ok (Isa.Insn.Mov_ri (_, imm)) -> add imm
              | Ok _ | Error _ -> ())
            (Isa.Disasm.region bytes ~pos:0 ~len:(String.length bytes))
        else
          for off = 0 to String.length bytes - 4 do
            let b i = Char.code bytes.[off + i] in
            add (b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24))
          done)
    (Kernel.Aspace.regions asp);
  !acc

(* --- the monitor -------------------------------------------------------- *)

let protection ?(shadow_stack = true) ?(coarse = true)
    ?(over = Kernel.Protection.none) () : Kernel.Protection.t =
  (* per-pid shadow stacks and entry-point caches; per machine by
     construction (one [protection] value per [Os.create]) *)
  let shadows : Hw.Ints.Stack.t Hw.Ints.Table.t = Hw.Ints.Table.create 8 in
  let entries : IntSet.t Hw.Ints.Table.t = Hw.Ints.Table.create 8 in
  let shadow (proc : Kernel.Proc.t) =
    match Hw.Ints.Table.find shadows proc.pid with
    | s -> s
    | exception Not_found ->
      let s = Hw.Ints.Stack.create () in
      Hw.Ints.Table.replace shadows proc.pid s;
      s
  in
  let entry_set (proc : Kernel.Proc.t) =
    match Hw.Ints.Table.find entries proc.pid with
    | s -> s
    | exception Not_found ->
      let s = entry_points proc in
      Hw.Ints.Table.replace entries proc.pid s;
      s
  in
  let deny (ctx : Kernel.Protection.ctx) (proc : Kernel.Proc.t) ~site ~mode =
    proc.detections <- proc.detections + 1;
    Kernel.Event_log.add ctx.log
      (Kernel.Event_log.Injection_detected { pid = proc.pid; eip = site; mode });
    false
  in
  let is_entry proc target = in_text proc target && IntSet.mem target (entry_set proc) in
  let coarse_ret ctx proc ~site ~target =
    if not coarse then true
    else if in_text proc target && call_preceded proc target then true
    else deny ctx proc ~site ~mode:"cfi-ret"
  in
  let monitor ctx (proc : Kernel.Proc.t) ~kind ~site ~target ~ret =
    match (kind : Hw.Cpu.ctrl_kind) with
    | Call_direct ->
      if shadow_stack then Hw.Ints.Stack.push (shadow proc) ret;
      true
    | Call_indirect ->
      if shadow_stack then Hw.Ints.Stack.push (shadow proc) ret;
      if coarse && not (is_entry proc target) then
        deny ctx proc ~site ~mode:"cfi-call"
      else true
    | Return ->
      if not shadow_stack then coarse_ret ctx proc ~site ~target
      else
        (* pop until the target matches: longjmp legitimately discards any
           number of frames, but a genuine return address is always still
           *somewhere* on the shadow stack *)
        let s = shadow proc in
        let i = newest s target (Hw.Ints.Stack.length s - 1) in
        if i >= 0 then begin
          Hw.Ints.Stack.truncate s i;
          true
        end
        else if Hw.Ints.Stack.length s = 0 then
          (* no recorded history (fork child, restored snapshot): the
             shadow stack proves nothing either way *)
          coarse_ret ctx proc ~site ~target
        else
          (* denial mode deliberately matches the coarse fallback's:
             shadow-stack state is kernel-private and not checkpointed,
             so a restored run re-detects the same violation through the
             empty-stack fallback — the event log must render
             identically for replay equivalence *)
          deny ctx proc ~site ~mode:"cfi-ret"
    | Jump_indirect ->
      if not coarse then true
      else if in_text proc target && (call_preceded proc target || is_entry proc target)
      then true
      else deny ctx proc ~site ~mode:"cfi-jmp"
  in
  let name =
    let base =
      match (shadow_stack, coarse) with
      | true, true -> "shadow-cfi"
      | true, false -> "shadow-stack"
      | false, true -> "coarse-cfi"
      | false, false -> "cfi-off"
    in
    if over.Kernel.Protection.name = "unprotected" then base
    else base ^ "+" ^ over.Kernel.Protection.name
  in
  { over with name; ctrl_monitor = Some monitor }
