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

let get r reg = r.gpr.(Isa.Reg.to_int reg)
let set r reg v = r.gpr.(Isa.Reg.to_int reg) <- mask32 v

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

(* How an instruction, or a [run_block] call, ended. The constructors are
   constant, so reporting a trap allocates nothing: its payload stays in
   registers — the syscall number in EAX, a page fault in the MMU's
   fault register, #UD and #GP in the dispatch cursor below —
   until the kernel asks for it. *)
type trap = No_trap | Sys | Pf | Ud | Gp | Db

(* The dispatcher's per-machine state: the MMU parts read on every
   instruction, the budget of the call in flight, and what the call
   reports besides its trap (its attempt and retire counts, the #UD/#GP
   payload). One record, built at the machine's first call and kept in
   its [Exec_env], so the loops below carry one pointer instead of a
   closure per call, and a call allocates no counters or result record.
   [trail] is [env.trail] as armed when the call began, and [folded] the
   ITLB hits on [fold_vpn] the cached loop still owes ([pay]); [steps]
   memoizes the single step's decodes ([single_step]). *)
type cursor = {
  env : Exec_env.t;
  mmu : Mmu.t;
  cost : Cost.t;
  itlb : Tlb.t;
  page_shift : int;
  fetch : int -> int;  (* the byte-at-a-time decoder's fetch callback *)
  mutable regs : regs;
  mutable trail : Exec_env.trail;
  mutable fold_vpn : int;
  mutable folded : int;
  mutable max_insns : int;
  mutable tick_limit : int;
  mutable fast_fetch : bool;
  mutable attempts : int;  (* retired plus the trapping one, if any *)
  mutable retired : int;
  mutable ud_eip : int;
  mutable ud_opcode : int;
  mutable gp_reason : string;
  steps : Isa.Insn.t Ints.Table.t;
}

type Exec_env.cursor += Cursor of cursor

let cursor (env : Exec_env.t) mmu r =
  match env.cursor with
  | Cursor c when c.mmu == mmu ->
    c.regs <- r;
    c
  | _ ->
    let c =
      {
        env;
        mmu;
        cost = Mmu.cost mmu;
        itlb = Mmu.itlb mmu;
        page_shift = Phys.page_shift (Mmu.phys mmu);
        fetch = (fun a -> Mmu.Fast.fetch8 mmu ~from_user:true a);
        regs = r;
        trail = env.trail;
        fold_vpn = 0;
        folded = 0;
        max_insns = 0;
        tick_limit = 0;
        fast_fetch = false;
        attempts = 0;
        retired = 0;
        ud_eip = 0;
        ud_opcode = 0;
        gp_reason = "";
        steps = Ints.Table.create 8;
      }
    in
    env.cursor <- Cursor c;
    c

(* What the last [run_block] call on [env] reported; zero before the
   first call. *)
let attempts (env : Exec_env.t) = match env.cursor with Cursor c -> c.attempts | _ -> 0
let retired (env : Exec_env.t) = match env.cursor with Cursor c -> c.retired | _ -> 0
let ud_eip (env : Exec_env.t) = match env.cursor with Cursor c -> c.ud_eip | _ -> 0
let ud_opcode (env : Exec_env.t) = match env.cursor with Cursor c -> c.ud_opcode | _ -> 0

let ud c ~eip opcode =
  c.ud_eip <- eip;
  c.ud_opcode <- opcode;
  Ud

let gp c reason =
  c.gp_reason <- reason;
  Gp

(* The allocated form of a faulting trap, for the trace stream;
   dispatch itself never builds it. *)
let fault_of c = function
  | Pf -> Page (Mmu.pending_fault c.mmu)
  | Ud -> Invalid_opcode { eip = c.ud_eip; opcode = c.ud_opcode }
  | Gp -> General_protection c.gp_reason
  | No_trap | Sys | Db -> invalid_arg "Cpu.fault_of: not a fault"

let set_flags r v =
  let v = mask32 v in
  r.zf <- v = 0;
  r.sf <- v land 0x80000000 <> 0

let set_flags_signed r diff =
  r.zf <- diff = 0;
  r.sf <- diff < 0

(* the MMU already traced its own faults; #UD and #GP surface here *)
let trace_trap c trap =
  let obs = Mmu.obs c.mmu in
  if Obs.enabled obs then
    Obs.event obs ~cat:"cpu" "cpu.trap"
      ~args:[ ("fault", Obs.Json.Str (Fmt.str "%a" pp_fault (fault_of c trap))) ]

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
  No_trap

let jump_if r cond target ~next =
  (match target with
  | Isa.Insn.Rel disp -> r.eip <- (if cond then mask32 (next + disp) else next)
  | Isa.Insn.Lbl _ -> assert false);
  No_trap

(* Consult the control-transfer monitor (when armed) before the new eip is
   committed. The monitor runs after every memory access of the
   instruction, so a page fault cannot restart the instruction past a
   monitor side effect (a shadow-stack push would otherwise happen twice).
   A denied transfer surfaces as #GP; the monitor has already logged why. *)
let allowed (env : Exec_env.t) kind ~site ~target ~ret =
  match env.ctrl with None -> true | Some f -> f ~kind ~site ~target ~ret

let denied c kind ~site ~target =
  gp c (Fmt.str "cfi: %s site=0x%08x target=0x%08x" (ctrl_kind_name kind) site target)

(* Execute one already-decoded instruction at [eip] whose encoding is
   [next - eip] bytes: [No_trap] when it retired, [Sys] for [int 0x80],
   [Gp] for a #GP; a page fault raises [Mmu.Pending_fault]. Register state
   is only committed once every memory access of the instruction has
   succeeded, so a faulting instruction can be transparently restarted
   after the kernel services the fault — the restart-after-page-fault
   semantics Algorithms 1 and 2 depend on. Shared verbatim between exact
   dispatch ([step_with], which decodes first) and cached dispatch
   ([cached_exec], which replays a cached decode), so the two paths cannot
   drift. *)
let exec_insn c (r : regs) insn ~eip ~next =
  let mmu = c.mmu in
  match (insn : Isa.Insn.t) with
  | Nop ->
    r.eip <- next;
    No_trap
  | Hlt -> gp c "hlt in user mode"
  | Mov_ri (d, i) ->
    set r d i;
    r.eip <- next;
    No_trap
  | Mov_rr (d, s) ->
    set r d (get r s);
    r.eip <- next;
    No_trap
  | Load (d, b, off) ->
    let v = Mmu.Fast.read32 mmu ~from_user:true (get r b + off) in
    set r d v;
    r.eip <- next;
    No_trap
  | Store (b, off, s) ->
    Mmu.Fast.write32 mmu ~from_user:true (get r b + off) (get r s);
    r.eip <- next;
    No_trap
  | Loadb (d, b, off) ->
    let v = Mmu.Fast.read8 mmu ~from_user:true (get r b + off) in
    set r d v;
    r.eip <- next;
    No_trap
  | Storeb (b, off, s) ->
    Mmu.Fast.write8 mmu ~from_user:true (get r b + off) (get r s land 0xFF);
    r.eip <- next;
    No_trap
  | Push s ->
    push mmu r (get r s);
    r.eip <- next;
    No_trap
  | Pop d ->
    let sp = get r ESP in
    let v = Mmu.Fast.read32 mmu ~from_user:true sp in
    set r ESP (sp + 4);
    set r d v;
    r.eip <- next;
    No_trap
  | Lea (d, b, off) ->
    set r d (get r b + off);
    r.eip <- next;
    No_trap
  | Add (d, s) -> binop r d s ( + ) ~next
  | Sub (d, s) -> binop r d s ( - ) ~next
  | Add_ri (d, i) ->
    let v = get r d + i in
    set r d v;
    set_flags r v;
    r.eip <- next;
    No_trap
  | Cmp (a, b) ->
    set_flags_signed r (sign32 (get r a) - sign32 (get r b));
    r.eip <- next;
    No_trap
  | Cmp_ri (a, i) ->
    set_flags_signed r (sign32 (get r a) - i);
    r.eip <- next;
    No_trap
  | And_ (d, s) -> binop r d s ( land ) ~next
  | Or_ (d, s) -> binop r d s ( lor ) ~next
  | Xor (d, s) -> binop r d s ( lxor ) ~next
  | Mul (d, s) -> binop r d s ( * ) ~next
  | Shl (d, i) ->
    let v = get r d lsl (i land 31) in
    set r d v;
    set_flags r v;
    r.eip <- next;
    No_trap
  | Shr (d, i) ->
    let v = get r d lsr (i land 31) in
    set r d v;
    set_flags r v;
    r.eip <- next;
    No_trap
  | Jmp t -> jump_if r true t ~next
  | Jz t -> jump_if r r.zf t ~next
  | Jnz t -> jump_if r (not r.zf) t ~next
  | Jl t -> jump_if r r.sf t ~next
  | Jge t -> jump_if r (not r.sf) t ~next
  | Jmp_r s ->
    let target = get r s in
    if allowed c.env Jump_indirect ~site:eip ~target ~ret:next then begin
      r.eip <- target;
      No_trap
    end
    else denied c Jump_indirect ~site:eip ~target
  | Call t ->
    let disp = match t with Isa.Insn.Rel d -> d | Isa.Insn.Lbl _ -> assert false in
    let target = mask32 (next + disp) in
    push mmu r next;
    if allowed c.env Call_direct ~site:eip ~target ~ret:next then begin
      r.eip <- target;
      No_trap
    end
    else denied c Call_direct ~site:eip ~target
  | Call_r s ->
    let target = get r s in
    push mmu r next;
    if allowed c.env Call_indirect ~site:eip ~target ~ret:next then begin
      r.eip <- target;
      No_trap
    end
    else denied c Call_indirect ~site:eip ~target
  | Ret ->
    let sp = get r ESP in
    let target = Mmu.Fast.read32 mmu ~from_user:true sp in
    if allowed c.env Return ~site:eip ~target ~ret:next then begin
      set r ESP (sp + 4);
      r.eip <- target;
      No_trap
    end
    else denied c Return ~site:eip ~target
  | Int 0x80 ->
    r.eip <- next;
    Sys
  | Int n -> gp c (Fmt.str "int 0x%x unsupported" n)

let decode_exec c (r : regs) ~fetch =
  let eip = r.eip in
  match Isa.Decode.decode ~fetch eip with
  | Error (Isa.Decode.Bad_opcode op) -> ud c ~eip op
  | Error (Isa.Decode.Bad_register v) ->
    gp c (Fmt.str "bad register field %d at eip=0x%08x" v eip)
  | Error Isa.Decode.Truncated ->
    (* unreachable with this fetch-callback decoder (no end-of-stream);
       the page-edge-bounded block builder *does* see [Truncated] — it
       ends the block there and dispatch falls back to this path, whose
       per-byte fetches fault (or succeed) across the page boundary
       exactly as real hardware would *)
    ud c ~eip (-1)
  | Ok insn -> exec_insn c r insn ~eip ~next:(eip + Isa.Insn.size insn)

(* Decode + execute one instruction with a caller-chosen fetch for its
   bytes: a page fault (of the fetch or of the instruction) becomes [Pf],
   and #UD/#GP are traced. The exact loop's body and the cached loop's
   fallback for negative blocks. *)
let step_with c ~fetch =
  match decode_exec c c.regs ~fetch with
  | exception Mmu.Pending_fault -> Pf
  | (Ud | Gp) as t ->
    trace_trap c t;
    t
  | (No_trap | Sys | Pf | Db) as t -> t

(* The block dispatcher's exact fallback for one instruction whose first
   byte has already been translated to packed paddr [pa0] (a negative block:
   undecodable first byte, or operands straddling the page edge). The byte-0
   fetch must not retranslate — that would double the TLB traffic relative
   to the per-instruction interpreter — so it replays only the icache touch
   and the physical read; every later byte goes through the full fast-path
   fetch, faulting across the page boundary exactly as the exact loop's
   would. The one dispatch path that still builds a fetch closure. *)
let step_env_at_pa0 c pa0 =
  let mmu = c.mmu in
  let eip = c.regs.eip in
  let phys = Mmu.phys mmu in
  let fetch a =
    if a = eip then begin
      Mmu.touch_icache mmu pa0;
      Phys.read8_at phys pa0
    end
    else Mmu.Fast.fetch8 mmu ~from_user:true a
  in
  step_with c ~fetch

(* Write [eip] into the forensic trail: inline, because a call per
   retired instruction is a measurable share of dispatch. *)
let[@inline] record c eip =
  let tr = c.trail in
  let pos = tr.Exec_env.pos in
  tr.ring.(pos) <- eip;
  tr.pos <- (if pos + 1 = Array.length tr.ring then 0 else pos + 1)

(* A plainly retired instruction: [params.insn] cycles inline (the timer
   comparison and the sampling hook both read [cycles] mid-call), the
   trail, and the batched count the caller flushes to [Cost.insns]. *)
let[@inline] retire c eip =
  record c eip;
  c.cost.cycles <- c.cost.cycles + c.cost.params.insn;
  c.retired <- c.retired + 1

let[@inline] in_budget c = c.attempts < c.max_insns && c.cost.cycles < c.tick_limit

let[@inline] attempted c = c.attempts <- c.attempts + 1

(* Exact dispatch: one instruction per iteration, byte-at-a-time through
   [step_with] — the reference semantics the cached loop below must match.
   Same stop conditions and retire accounting as the cached loop, with one
   addition: an instruction retired under the trap flag ends the call as
   [Db], uncharged, so the kernel charges it and then serves the #DB (a
   trap-flag run therefore executes exactly one instruction). The loop
   allocates nothing; the decoder allocates the instruction it decodes. *)
let rec exact_loop c =
  if in_budget c then begin
    let r = c.regs in
    let eip = r.eip and tf = r.tf in
    let t = step_with c ~fetch:c.fetch in
    attempted c;
    match t with
    | No_trap when not tf ->
      retire c eip;
      exact_loop c
    | No_trap ->
      record c eip;
      Db
    | Sys ->
      record c eip;
      Sys
    | (Pf | Ud | Gp | Db) as t -> t
  end
  else No_trap

(* [n] certain ITLB hits on [vpn], owed until the next [pay]. Between two
   real ITLB translations every fold is on one page, so one pending
   (vpn, count) pair covers them. *)
let[@inline] fold_hits c vpn n =
  c.fold_vpn <- vpn;
  c.folded <- c.folded + n

(* Pay the owed hits: before every real ITLB translation, whose miss
   would pick a victim by the recency they set, and when the call ends. *)
let pay c =
  if c.folded > 0 then begin
    Tlb.note_hits c.itlb c.fold_vpn c.folded;
    c.folded <- 0
  end

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
     folds all its bytes into hit counts ([fold_hits]), and a same-page
     successor's paddr is the previous block's frame plus the page offset.
     Between two real translations the folded hits are all on one page,
     so the cursor sums them and pays them with one [Tlb.note_hits] (an
     O(1) recency move under LRU) before the next real translation — a
     miss there picks its victim by that recency — and when the call
     ends. Blocks are page-bounded, so a block never leaves its first
     byte's page. A pagetable remap or [invlpg] takes effect at the next
     call's first translation, with no cache invalidation at all;
   - with a sampling hook or an icache model, every byte of every
     instruction replays a real translation + icache touch, so decimation
     order and cache-line traffic are preserved exactly;
   - retired instructions charge [params.insn] cycles inline while the
     [insns] counter and retire-rate metrics are batched by the caller
     from the call's retire count;
   - staleness ([Bbcache.stale]) is checked before every instruction, not
     just at block entry, so self-modifying code that rewrites its own
     block takes effect at the very next instruction boundary;
   - a block end finds the next block with [Bbcache.follow] from the
     block just left, which returns (and counts) what [Bbcache.lookup]
     would, usually from the block's chain links without a table probe;
   - each retired instruction's eip goes into [trail] ([record]).

   The loop is four mutually tail-recursive top-level functions over the
   cursor, so neither a call nor an instruction allocates. Its state is
   three plain arguments: [b], the previous instruction's block
   ([Bbcache.none] before the first); [idx], the index of its successor in
   [b] when execution fell through to it, else -1; and [vpn], the page of
   the previous fetch when fetches from it may be folded, else -1 (before
   the first instruction, after the byte-at-a-time fallback, whose fetches
   may reach into the next page, and always without [fast_fetch]). *)
let rec cached_loop c cache (b : Bbcache.block) idx vpn =
  if in_budget c then begin
    let eip = c.regs.eip in
    let shift = c.page_shift in
    if vpn >= 0 && (idx >= 0 || mask32 eip lsr shift = vpn) then
      if idx >= 0 && not (Bbcache.stale cache b) then begin
        fold_hits c vpn b.Bbcache.sizes.(idx);
        cached_exec c cache b idx vpn
      end
      else begin
        let pa0 = (b.Bbcache.b_frame lsl shift) lor (eip land ((1 lsl shift) - 1)) in
        let b = Bbcache.follow cache b pa0 in
        if b.Bbcache.n = 0 then begin
          fold_hits c vpn 1;
          cached_fallback c cache pa0
        end
        else begin
          fold_hits c vpn b.Bbcache.sizes.(0);
          cached_exec c cache b 0 vpn
        end
      end
    else begin
      pay c;
      let pa0 = Mmu.translate_result c.mmu ~from_user:true Mmu.Fetch eip in
      if pa0 < 0 then begin
        attempted c;
        Pf
      end
      else if
        idx >= 0 && pa0 = b.Bbcache.b_pa0 + b.Bbcache.offs.(idx) && not (Bbcache.stale cache b)
      then cached_translated c cache b idx pa0
      else cached_translated c cache (Bbcache.follow cache b pa0) 0 pa0
    end
  end
  else No_trap

(* byte 0 of the instruction at [regs.eip] was translated to [pa0];
   replay the remaining bytes' fetches *)
and cached_translated c cache b idx pa0 =
  if b.Bbcache.n = 0 then cached_fallback c cache pa0
  else begin
    let eip = c.regs.eip in
    let sz = b.Bbcache.sizes.(idx) in
    Mmu.touch_icache c.mmu pa0;
    if c.fast_fetch then begin
      let vpn = mask32 eip lsr c.page_shift in
      fold_hits c vpn (sz - 1);
      cached_exec c cache b idx vpn
    end
    else begin
      for i = 1 to sz - 1 do
        let pa = Mmu.translate_result c.mmu ~from_user:true Mmu.Fetch (eip + i) in
        Mmu.touch_icache c.mmu pa
      done;
      cached_exec c cache b idx (-1)
    end
  end

(* negative block: byte-at-a-time fallback for the one pc [regs.eip],
   whose later bytes are real translations *)
and cached_fallback c cache pa0 =
  pay c;
  let eip = c.regs.eip in
  let t = step_env_at_pa0 c pa0 in
  attempted c;
  match t with
  | No_trap ->
    retire c eip;
    cached_loop c cache Bbcache.none (-1) (-1)
  | Sys ->
    record c eip;
    Sys
  | (Pf | Ud | Gp | Db) as t -> t

(* every byte of instruction [idx] of [b], at [regs.eip], has been fetched *)
and cached_exec c cache b idx vpn =
  let r = c.regs in
  let eip = r.eip in
  let sz = b.Bbcache.sizes.(idx) in
  match exec_insn c r b.Bbcache.insns.(idx) ~eip ~next:(eip + sz) with
  | exception Mmu.Pending_fault ->
    attempted c;
    Pf
  | No_trap ->
    attempted c;
    retire c eip;
    let next = idx + 1 in
    cached_loop c cache b (if next < b.Bbcache.n && r.eip = eip + sz then next else -1) vpn
  | Sys ->
    attempted c;
    record c eip;
    Sys
  | (Pf | Ud | Gp | Db) as t ->
    attempted c;
    trace_trap c t;
    t

(* The single-step window (Algorithm 2: the trap flag is set), with the
   cache on. One instruction, run as [exact_loop] runs it — byte 0
   translated, then every further byte through its own translation and
   icache touch, as the decoder's fetches make them — but decoded from
   [steps], a memo keyed by the instruction's bytes, so a step allocates
   nothing. A decode is a function of the bytes alone, so the memo needs
   no invalidation, and it leaves the block cache and its statistics
   alone. An instruction that does not decode within its page takes the
   exact byte-at-a-time path from the translated byte 0. *)

(* The bytes at packed paddr [pa0], up to the longest encoding (7) and
   not past the page end, packed with their count at bit 56: they
   determine the decode. Raw reads: no translation, no cache traffic. *)
let step_key c pa0 =
  let phys = Mmu.phys c.mmu in
  let page = 1 lsl c.page_shift in
  let n = min 7 (page - (pa0 land (page - 1))) in
  let key = ref (n lsl 56) in
  for i = 0 to n - 1 do
    key := !key lor (Phys.read8_at phys (pa0 + i) lsl (8 * i))
  done;
  !key

(* The instruction [key]'s bytes decode to; raises [Not_found] when they
   do not decode (within the page). Decodes, and so allocates, only on a
   memo miss; the memo is dropped wholesale at 4096 entries. *)
let step_decode c key =
  match Ints.Table.find c.steps key with
  | insn -> insn
  | exception Not_found -> (
    let bytes = String.init (key lsr 56) (fun i -> Char.chr ((key lsr (8 * i)) land 0xFF)) in
    match Isa.Decode.of_string bytes 0 with
    | Ok insn ->
      if Ints.Table.length c.steps >= 4096 then Ints.Table.reset c.steps;
      Ints.Table.replace c.steps key insn;
      insn
    | Error _ -> raise Not_found)

(* A step ends as in [exact_loop]: a retired instruction reports #DB,
   uncharged, and a syscall is recorded in the trail. *)
let stepped c eip = function
  | No_trap ->
    record c eip;
    Db
  | Sys ->
    record c eip;
    Sys
  | (Pf | Ud | Gp | Db) as t -> t

let single_step c =
  if in_budget c then begin
    let r = c.regs in
    let eip = r.eip in
    let pa0 = Mmu.translate_result c.mmu ~from_user:true Mmu.Fetch eip in
    attempted c;
    if pa0 < 0 then Pf
    else
      match step_decode c (step_key c pa0) with
      | exception Not_found -> stepped c eip (step_env_at_pa0 c pa0)
      | insn -> (
        let sz = Isa.Insn.size insn in
        Mmu.touch_icache c.mmu pa0;
        for i = 1 to sz - 1 do
          Mmu.touch_icache c.mmu (Mmu.translate_result c.mmu ~from_user:true Mmu.Fetch (eip + i))
        done;
        match exec_insn c r insn ~eip ~next:(eip + sz) with
        | exception Mmu.Pending_fault -> Pf
        | (Ud | Gp) as t ->
          trace_trap c t;
          t
        | t -> stepped c eip t)
  end
  else No_trap

(* The one dispatcher. The path is chosen once, at entry: the cached loop
   needs a cache and nothing that must observe byte fetches — a TLB
   integrity guard (every cached-entry hit, lib/inject) or ECC scrubbing
   (a side effect on every physical read) — and the trap flag
   (Algorithm 2's single-step window) takes [single_step]. Only trap
   handlers set the trap flag, and they run between calls, so one check
   at entry suffices. *)
let run_block (env : Exec_env.t) mmu (r : regs) ~max_insns ~tick_limit =
  let c = cursor env mmu r in
  c.max_insns <- max_insns;
  c.tick_limit <- tick_limit;
  c.trail <- env.trail;
  c.attempts <- 0;
  c.retired <- 0;
  match env.cache with
  | Some cache when not (Option.is_some env.tlb_guard || Phys.ecc_enabled (Mmu.phys mmu)) ->
    if r.tf then single_step c
    else begin
      c.fast_fetch <- Option.is_none env.sample && Option.is_none (Mmu.icache mmu);
      let t = cached_loop c cache Bbcache.none (-1) (-1) in
      (* every exit of the loop comes back here: pay the folded hits *)
      pay c;
      t
    end
  | Some _ | None -> exact_loop c
