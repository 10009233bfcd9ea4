let mask32 = Isa.Encode.mask32
let sign32 = Isa.Decode.sign32

type regs = {
  gpr : int array;
  mutable eip : int;
  mutable zf : bool;
  mutable sf : bool;
  mutable tf : bool;
}

let create_regs () = { gpr = Array.make 8 0; eip = 0; zf = false; sf = false; tf = false }

let copy_regs r = { r with gpr = Array.copy r.gpr }

let get r reg = r.gpr.(Isa.Reg.to_int reg)
let set r reg v = r.gpr.(Isa.Reg.to_int reg) <- mask32 v

type event = Retired | Syscall of int

(* The four control-transfer shapes a CFI monitor distinguishes. *)
type ctrl_kind = Exec_env.ctrl_kind =
  | Call_direct
  | Call_indirect
  | Return
  | Jump_indirect

let ctrl_kind_name = function
  | Call_direct -> "call"
  | Call_indirect -> "call*"
  | Return -> "ret"
  | Jump_indirect -> "jmp*"

type fault =
  | Page of Mmu.fault
  | Invalid_opcode of { eip : int; opcode : int }
  | General_protection of string

let pp_fault ppf = function
  | Page f -> Mmu.pp_fault ppf f
  | Invalid_opcode { eip; opcode } -> Fmt.pf ppf "#UD eip=0x%08x opcode=0x%02x" eip opcode
  | General_protection s -> Fmt.pf ppf "#GP %s" s

type step = { outcome : (event, fault) result; debug_trap : bool }

(* Preallocated results for the overwhelmingly common case: a retired
   instruction produces no fresh step record at all. *)
let ok_retired : (event, fault) result = Ok Retired
let retired_step = { outcome = ok_retired; debug_trap = false }
let retired_step_db = { outcome = ok_retired; debug_trap = true }

let set_flags r v =
  let v = mask32 v in
  r.zf <- v = 0;
  r.sf <- v land 0x80000000 <> 0

let set_flags_signed r diff =
  r.zf <- diff = 0;
  r.sf <- diff < 0

(* the MMU already traced its own faults; #UD and #GP surface here *)
let trace_trap mmu fault =
  let obs = Mmu.obs mmu in
  if Obs.enabled obs then
    Obs.event obs ~cat:"cpu" "cpu.trap"
      ~args:[ ("fault", Obs.Json.Str (Fmt.str "%a" pp_fault fault)) ]

(* [exec_insn]'s helpers live at top level, so executing an instruction
   allocates no closures. *)
let push mmu r v =
  let sp = mask32 (get r ESP - 4) in
  Mmu.Fast.write32 mmu ~from_user:true sp v;
  set r ESP sp

let binop r d s f ~next =
  let v = f (get r d) (get r s) in
  set r d v;
  set_flags r v;
  r.eip <- next;
  Ok Retired

let jump_if r cond target ~next =
  (match target with
  | Isa.Insn.Rel disp -> r.eip <- (if cond then mask32 (next + disp) else next)
  | Isa.Insn.Lbl _ -> assert false);
  Ok Retired

(* Consult the control-transfer monitor (when armed) before the new eip is
   committed. The monitor runs after every memory access of the
   instruction, so a page fault cannot restart the instruction past a
   monitor side effect (a shadow-stack push would otherwise happen twice).
   A denied transfer surfaces as #GP; the monitor has already logged why. *)
let allowed ctrl kind ~site ~target ~ret =
  match ctrl with None -> true | Some f -> f ~kind ~site ~target ~ret

let denied kind ~site ~target =
  Error
    (General_protection
       (Fmt.str "cfi: %s site=0x%08x target=0x%08x" (ctrl_kind_name kind) site target))

(* Execute one already-decoded instruction at [eip] whose encoding is
   [next - eip] bytes. Register state is only committed once every memory
   access of the instruction has succeeded, so a faulting instruction can be
   transparently restarted after the kernel services the fault — the
   restart-after-page-fault semantics Algorithms 1 and 2 depend on. Shared
   verbatim between exact dispatch ([step_with], which decodes first) and
   cached dispatch ([run_cached], which replays a cached decode), so the
   two paths cannot drift. *)
let exec_insn ~ctrl mmu (r : regs) insn ~eip ~next : (event, fault) result =
  match (insn : Isa.Insn.t) with
  | Nop ->
    r.eip <- next;
    Ok Retired
  | Hlt -> Error (General_protection "hlt in user mode")
  | Mov_ri (d, i) ->
    set r d i;
    r.eip <- next;
    Ok Retired
  | Mov_rr (d, s) ->
    set r d (get r s);
    r.eip <- next;
    Ok Retired
  | Load (d, b, off) ->
    let v = Mmu.Fast.read32 mmu ~from_user:true (get r b + off) in
    set r d v;
    r.eip <- next;
    Ok Retired
  | Store (b, off, s) ->
    Mmu.Fast.write32 mmu ~from_user:true (get r b + off) (get r s);
    r.eip <- next;
    Ok Retired
  | Loadb (d, b, off) ->
    let v = Mmu.Fast.read8 mmu ~from_user:true (get r b + off) in
    set r d v;
    r.eip <- next;
    Ok Retired
  | Storeb (b, off, s) ->
    Mmu.Fast.write8 mmu ~from_user:true (get r b + off) (get r s land 0xFF);
    r.eip <- next;
    Ok Retired
  | Push s ->
    push mmu r (get r s);
    r.eip <- next;
    Ok Retired
  | Pop d ->
    let sp = get r ESP in
    let v = Mmu.Fast.read32 mmu ~from_user:true sp in
    set r ESP (sp + 4);
    set r d v;
    r.eip <- next;
    Ok Retired
  | Lea (d, b, off) ->
    set r d (get r b + off);
    r.eip <- next;
    Ok Retired
  | Add (d, s) -> binop r d s ( + ) ~next
  | Sub (d, s) -> binop r d s ( - ) ~next
  | Add_ri (d, i) ->
    let v = get r d + i in
    set r d v;
    set_flags r v;
    r.eip <- next;
    Ok Retired
  | Cmp (a, b) ->
    set_flags_signed r (sign32 (get r a) - sign32 (get r b));
    r.eip <- next;
    Ok Retired
  | Cmp_ri (a, i) ->
    set_flags_signed r (sign32 (get r a) - i);
    r.eip <- next;
    Ok Retired
  | And_ (d, s) -> binop r d s ( land ) ~next
  | Or_ (d, s) -> binop r d s ( lor ) ~next
  | Xor (d, s) -> binop r d s ( lxor ) ~next
  | Mul (d, s) -> binop r d s ( * ) ~next
  | Shl (d, i) ->
    let v = get r d lsl (i land 31) in
    set r d v;
    set_flags r v;
    r.eip <- next;
    Ok Retired
  | Shr (d, i) ->
    let v = get r d lsr (i land 31) in
    set r d v;
    set_flags r v;
    r.eip <- next;
    Ok Retired
  | Jmp t -> jump_if r true t ~next
  | Jz t -> jump_if r r.zf t ~next
  | Jnz t -> jump_if r (not r.zf) t ~next
  | Jl t -> jump_if r r.sf t ~next
  | Jge t -> jump_if r (not r.sf) t ~next
  | Jmp_r s ->
    let target = get r s in
    if allowed ctrl Jump_indirect ~site:eip ~target ~ret:next then begin
      r.eip <- target;
      Ok Retired
    end
    else denied Jump_indirect ~site:eip ~target
  | Call t ->
    let disp = match t with Isa.Insn.Rel d -> d | Isa.Insn.Lbl _ -> assert false in
    let target = mask32 (next + disp) in
    push mmu r next;
    if allowed ctrl Call_direct ~site:eip ~target ~ret:next then begin
      r.eip <- target;
      Ok Retired
    end
    else denied Call_direct ~site:eip ~target
  | Call_r s ->
    let target = get r s in
    push mmu r next;
    if allowed ctrl Call_indirect ~site:eip ~target ~ret:next then begin
      r.eip <- target;
      Ok Retired
    end
    else denied Call_indirect ~site:eip ~target
  | Ret ->
    let sp = get r ESP in
    let target = Mmu.Fast.read32 mmu ~from_user:true sp in
    if allowed ctrl Return ~site:eip ~target ~ret:next then begin
      set r ESP (sp + 4);
      r.eip <- target;
      Ok Retired
    end
    else denied Return ~site:eip ~target
  | Int 0x80 ->
    r.eip <- next;
    Ok (Syscall (get r EAX))
  | Int n -> Error (General_protection (Fmt.str "int 0x%x unsupported" n))

(* Decode + execute with a caller-chosen fetch for the instruction bytes,
   then fold exceptions and the trap-flag bit into a [step]. The shared
   tail of [step], the exact dispatch loop and the cached loop's fallback
   for negative blocks. *)
let step_with ~ctrl ~fetch mmu (r : regs) =
  let tf_at_start = r.tf in
  let exec () =
    let eip = r.eip in
    match Isa.Decode.decode ~fetch eip with
    | Error (Isa.Decode.Bad_opcode op) -> Error (Invalid_opcode { eip; opcode = op })
    | Error (Isa.Decode.Bad_register v) ->
      Error (General_protection (Fmt.str "bad register field %d at eip=0x%08x" v eip))
    | Error Isa.Decode.Truncated ->
      (* unreachable with this fetch-callback decoder (no end-of-stream);
         the page-edge-bounded block builder *does* see [Truncated] — it
         ends the block there and dispatch falls back to this path, whose
         per-byte fetches fault (or succeed) across the page boundary
         exactly as real hardware would *)
      Error (Invalid_opcode { eip; opcode = -1 })
    | Ok insn -> exec_insn ~ctrl mmu r insn ~eip ~next:(eip + Isa.Insn.size insn)
  in
  match exec () with
  | exception Mmu.Pending_fault ->
    (* the fault record is materialized exactly once, here at the trap
       boundary — the fast path below allocated nothing *)
    { outcome = Error (Page (Mmu.pending_fault mmu)); debug_trap = false }
  | exception Mmu.Page_fault f -> { outcome = Error (Page f); debug_trap = false }
  | Error fault as e ->
    trace_trap mmu fault;
    { outcome = e; debug_trap = false }
  | Ok Retired -> if tf_at_start then retired_step_db else retired_step
  | Ok (Syscall _) as ok -> { outcome = ok; debug_trap = tf_at_start }

(* One instruction, byte-at-a-time: the classic interpreter, kept as a thin
   reference wrapper over [step_with] for tests and tools that single-step
   the CPU themselves. *)
let step ?ctrl mmu (r : regs) =
  step_with ~ctrl ~fetch:(fun a -> Mmu.Fast.fetch8 mmu ~from_user:true a) mmu r

(* The block dispatcher's exact fallback for one instruction whose first
   byte has already been translated to packed paddr [pa0] (a negative block:
   undecodable first byte, or operands straddling the page edge). The byte-0
   fetch must not retranslate — that would double the TLB traffic relative
   to the per-instruction interpreter — so it replays only the icache touch
   and the physical read; every later byte goes through the full fast-path
   fetch, faulting across the page boundary exactly as [step] would. *)
let step_env_at_pa0 (env : Exec_env.t) mmu (r : regs) pa0 =
  let eip = r.eip in
  let phys = Mmu.phys mmu in
  let fetch a =
    if a = eip then begin
      Mmu.touch_icache mmu pa0;
      Phys.read8_at phys pa0
    end
    else Mmu.Fast.fetch8 mmu ~from_user:true a
  in
  step_with ~ctrl:env.Exec_env.ctrl ~fetch mmu r

type block_result = {
  attempts : int;
      (** instructions attempted (retired + the trapping one, if any) —
          the scheduler's quantum/fuel currency, one per [step] the
          per-instruction path would have taken *)
  retired : int;  (** plainly retired instructions, charged but undelivered *)
  pending : step option;
      (** the trap (or syscall) that ended the run, still to be handed to
          the kernel's trap dispatch; [None] = ran out of budget *)
}

(* Exact dispatch: one instruction per iteration, byte-at-a-time through
   [step_with] — the reference semantics the cached loop below must match.
   Same stop conditions and retire accounting as the cached loop, with one
   addition: an instruction retired under the trap flag is handed back in
   [pending] uncharged, so the kernel charges it and then serves the #DB
   (a trap-flag run therefore executes exactly one instruction). Top-level
   rather than a closure inside [run_block], so the cached path allocates
   nothing for it. *)
let run_exact (env : Exec_env.t) mmu (r : regs) ~max_insns ~tick_limit =
  let cost = Mmu.cost mmu in
  let insn_cycles = cost.Cost.params.Cost.insn in
  let fetch a = Mmu.Fast.fetch8 mmu ~from_user:true a in
  let attempts = ref 0 in
  let retired = ref 0 in
  let pending = ref None in
  while Option.is_none !pending && !attempts < max_insns && cost.Cost.cycles < tick_limit do
    let eip = r.eip in
    let s = step_with ~ctrl:env.Exec_env.ctrl ~fetch mmu r in
    incr attempts;
    match s.outcome with
    | Ok Retired when not s.debug_trap ->
      env.Exec_env.retire eip;
      cost.Cost.cycles <- cost.Cost.cycles + insn_cycles;
      incr retired
    | Ok _ ->
      env.Exec_env.retire eip;
      pending := Some s
    | Error _ -> pending := Some s
  done;
  { attempts = !attempts; retired = !retired; pending = !pending }

(* Cached dispatch: run decoded basic blocks until an instruction traps,
   the attempt budget [max_insns] is exhausted, or the cycle counter
   reaches [tick_limit] (the scheduler's next timer interrupt — checked
   before every instruction, exactly where the per-instruction loop calls
   [timer_tick]).

   Equivalence discipline — every architectural side effect of the
   exact loop is replayed, per instruction:
   - within one call the ITLB is immutable apart from fetch accounting:
     only instruction fetches touch it (data accesses go to the DTLB), and
     flushes, [invlpg], CR3 reloads, timer ticks and injected tampering all
     happen between calls. So byte 0 goes through a real
     [translate_result] (ITLB hit/walk/fill, walk charges, obs events,
     sampling) only for the call's first instruction and after a transfer
     to another page. Every other fetch is from the page the previous
     instruction was fetched from: a certain hit on the same entry, with
     the same frame and the same permission verdict. With no sampling hook
     and no icache model ([fast_fetch]) such a hit's only effect is the
     hit count (and LRU recency), so a mid-block or same-page instruction
     folds all its bytes into one [Tlb.note_hits], and a same-page
     successor's paddr is the previous block's frame plus the page offset.
     Blocks are page-bounded, so a block never leaves its first byte's
     page. A pagetable remap or [invlpg] takes effect at the next call's
     first translation, with no cache invalidation at all;
   - with a sampling hook or an icache model, every byte of every
     instruction replays a real translation + icache touch, so decimation
     order and cache-line traffic are preserved exactly;
   - retired instructions charge [params.insn] cycles inline (the timer
     comparison and the sampling hook both read [cycles] mid-block) while
     the [insns] counter and retire-rate metrics are batched by the
     caller from [retired];
   - staleness ([Bbcache.stale]) is checked before every instruction, not
     just at block entry, so self-modifying code that rewrites its own
     block takes effect at the very next instruction boundary.

   The loop state is three plain arguments, so an instruction allocates
   nothing: [b], the previous instruction's block ([Bbcache.none] before
   the first); [idx], the index of its successor in [b] when execution
   fell through to it, else -1; and [vpn], the page of the previous fetch
   when fetches from it may be folded, else -1 (before the first
   instruction, after the byte-at-a-time fallback, whose fetches may reach
   into the next page, and always without [fast_fetch]). *)
let run_cached (env : Exec_env.t) cache mmu (r : regs) ~max_insns ~tick_limit =
  let cost = Mmu.cost mmu in
  let insn_cycles = cost.Cost.params.Cost.insn in
  let phys = Mmu.phys mmu in
  let shift = Phys.page_shift phys in
  let off_mask = Phys.page_size phys - 1 in
  let itlb = Mmu.itlb mmu in
  let ctrl = env.Exec_env.ctrl in
  let fast_fetch = env.Exec_env.sample = None && Mmu.icache mmu = None in
  let attempts = ref 0 in
  let retired = ref 0 in
  let pending = ref None in
  let finish s = pending := Some s in
  let rec loop b idx vpn =
    if !attempts < max_insns && cost.Cost.cycles < tick_limit then begin
      let eip = r.eip in
      if vpn >= 0 && (idx >= 0 || mask32 eip lsr shift = vpn) then
        if idx >= 0 && not (Bbcache.stale cache b) then begin
          Tlb.note_hits itlb vpn b.Bbcache.sizes.(idx);
          exec b idx vpn eip
        end
        else begin
          let pa0 = (b.Bbcache.b_frame lsl shift) lor (eip land off_mask) in
          let b = Bbcache.lookup cache pa0 in
          if b.Bbcache.n = 0 then begin
            Tlb.note_hits itlb vpn 1;
            fallback eip pa0
          end
          else begin
            Tlb.note_hits itlb vpn b.Bbcache.sizes.(0);
            exec b 0 vpn eip
          end
        end
      else
        let pa0 = Mmu.translate_result mmu ~from_user:true Mmu.Fetch eip in
        if pa0 < 0 then begin
          incr attempts;
          finish { outcome = Error (Page (Mmu.pending_fault mmu)); debug_trap = false }
        end
        else if
          idx >= 0 && pa0 = b.Bbcache.b_pa0 + b.Bbcache.offs.(idx) && not (Bbcache.stale cache b)
        then translated b idx eip pa0
        else translated (Bbcache.lookup cache pa0) 0 eip pa0
    end
  (* byte 0 was translated to [pa0]; replay the remaining bytes' fetches *)
  and translated b idx eip pa0 =
    if b.Bbcache.n = 0 then fallback eip pa0
    else begin
      let sz = b.Bbcache.sizes.(idx) in
      Mmu.touch_icache mmu pa0;
      if fast_fetch then begin
        let vpn = mask32 eip lsr shift in
        Tlb.note_hits itlb vpn (sz - 1);
        exec b idx vpn eip
      end
      else begin
        for i = 1 to sz - 1 do
          let pa = Mmu.translate_result mmu ~from_user:true Mmu.Fetch (eip + i) in
          Mmu.touch_icache mmu pa
        done;
        exec b idx (-1) eip
      end
    end
  (* negative block: byte-at-a-time fallback for this one pc *)
  and fallback eip pa0 =
    let s = step_env_at_pa0 env mmu r pa0 in
    incr attempts;
    match s.outcome with
    | Ok Retired ->
      env.Exec_env.retire eip;
      cost.Cost.cycles <- cost.Cost.cycles + insn_cycles;
      incr retired;
      loop Bbcache.none (-1) (-1)
    | Ok (Syscall _) ->
      env.Exec_env.retire eip;
      finish s
    | Error _ -> finish s
  (* every byte of instruction [idx] of [b] has been fetched *)
  and exec b idx vpn eip =
    let sz = b.Bbcache.sizes.(idx) in
    match exec_insn ~ctrl mmu r b.Bbcache.insns.(idx) ~eip ~next:(eip + sz) with
    | exception Mmu.Pending_fault ->
      incr attempts;
      finish { outcome = Error (Page (Mmu.pending_fault mmu)); debug_trap = false }
    | exception Mmu.Page_fault f ->
      incr attempts;
      finish { outcome = Error (Page f); debug_trap = false }
    | Error fault as e ->
      incr attempts;
      trace_trap mmu fault;
      finish { outcome = e; debug_trap = false }
    | Ok Retired ->
      incr attempts;
      env.Exec_env.retire eip;
      cost.Cost.cycles <- cost.Cost.cycles + insn_cycles;
      incr retired;
      let next = idx + 1 in
      loop b (if next < b.Bbcache.n && r.eip = eip + sz then next else -1) vpn
    | Ok (Syscall _) as ok ->
      incr attempts;
      env.Exec_env.retire eip;
      finish { outcome = ok; debug_trap = false }
  in
  loop Bbcache.none (-1) (-1);
  { attempts = !attempts; retired = !retired; pending = !pending }

(* The one dispatcher. The path is chosen once, at entry: the cached loop
   needs a cache and nothing that must observe individual steps or byte
   fetches — the trap flag (Algorithm 2's single-step window), a TLB
   integrity guard (every cached-entry hit, lib/inject) or ECC scrubbing
   (a side effect on every physical read). Only trap handlers set the trap
   flag, and they run between calls, so one check at entry suffices. *)
let run_block (env : Exec_env.t) mmu (r : regs) ~max_insns ~tick_limit =
  match env.Exec_env.cache with
  | Some cache
    when not (r.tf || Mmu.has_tlb_guard mmu || Phys.ecc_enabled (Mmu.phys mmu)) ->
    run_cached env cache mmu r ~max_insns ~tick_limit
  | Some _ | None -> run_exact env mmu r ~max_insns ~tick_limit
