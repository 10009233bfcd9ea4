(* Decoded basic-block cache, keyed by *physical* address of the block's
   first byte. Frame keying (instead of eip × process) buys three
   properties at once: blocks are shared by every mapping of a frame (all
   forks of a guest, split-memory code views), copy-on-write is correct for
   free (the writer moves to a fresh frame, which is a fresh key), and a
   tampered translation is reproduced exactly (a wrong-pfn TLB entry sends
   execution to some frame, and the block is decoded from precisely the
   bytes the per-instruction interpreter would have fetched there).

   Invalidation is generation-based: each frame carries a generation
   counter, bumped by the {!Phys} write watch whenever a frame that backs
   at least one block is mutated — guest self-modifying stores, the
   split-memory kernel's gadget writes ([Mmu.kernel_code_write] lands in
   [Phys.write8]), demand-paging blits into recycled frames, fork/COW
   copies, and snapshot-restore refills all funnel through the same hook.
   Stale blocks are detected lazily on lookup (the stored generation no
   longer matches) and rebuilt from the current bytes. Pagetable remapping
   and [invlpg] need no hook at all: they only take effect between two
   [Cpu.run_block] calls, and each call translates its first fetch and
   every cross-page transfer through the ITLB, so a changed mapping simply
   resolves to a different frame and therefore a different key. (Within a
   call the ITLB is immutable apart from fetch accounting, which is why
   dispatch may fold mid-block and same-page fetches into hit counts.)

   Blocks are decoded with {!Isa.Decode.of_string} over the frame's bytes,
   so construction is bounded by the page edge by construction: an
   instruction whose operands would extend past the end of the frame
   decodes as [Truncated] and ends the block before it — the trailing
   straddler (or an undecodable first byte) leaves an *empty* block, which
   tells the dispatcher to fall back to the exact byte-at-a-time
   interpreter path for that one instruction.

   Chaining: each block remembers the last two blocks [follow] went to
   from it ([next0] the newer), so [follow] can skip the table
   probe at a block end. A remembered block is exactly what [lookup] would
   return while three things hold: its [b_pa0] is the address asked for,
   its generation is still its frame's (so [build] never replaced it: a
   rebuild only happens to a stale or missing entry), and the cache epoch
   is the one the links were made in (entries leave the table only by
   [clear], which bumps the epoch). The epoch lives in the linking block
   ([links_epoch]), so one compare drops both links together. *)

type block = {
  b_pa0 : int;  (* packed paddr (frame * page_size + off) of byte 0 *)
  b_frame : int;
  b_gen : int;  (* frame generation the bytes were decoded under *)
  insns : Isa.Insn.t array;
  sizes : int array;  (* sizes.(i) = encoded size of insns.(i) *)
  offs : int array;  (* offs.(i) = byte offset of insns.(i) from b_pa0 *)
  n : int;  (* 0 = negative block: dispatch must fall back for this pc *)
  mutable next0 : block;  (* most recent successor, or [none] *)
  mutable next1 : block;  (* the one before it, or [none] *)
  mutable links_epoch : int;  (* cache epoch [next0]/[next1] were made in *)
}

(* A block that is never looked up: the dispatcher's "no current block"
   loop state, so that state needs no option box. [follow] never writes
   its links, so one value serves every domain. *)
let rec none =
  {
    b_pa0 = -1;
    b_frame = -1;
    b_gen = -1;
    insns = [||];
    sizes = [||];
    offs = [||];
    n = 0;
    next0 = none;
    next1 = none;
    links_epoch = -1;
  }

type stats = {
  mutable hits : int;
  mutable misses : int;  (* lookups that had to build (cold or stale) *)
  mutable invalidations : int;  (* write-watch generation bumps *)
  mutable blocks_built : int;
  mutable insns_built : int;  (* total decoded instructions over all builds *)
}

type t = {
  phys : Phys.t;
  page_size : int;
  blocks : block Ints.Table.t;
  gen : int array;  (* per-frame generation *)
  stats : stats;
  max_block : int;  (* instruction-count cap per block *)
  max_blocks : int;  (* table size at which the cache resets wholesale *)
  scratch : Bytes.t;  (* page-sized frame snapshot buffer, reused per build *)
  mutable epoch : int;  (* bumped by every [clear]: invalidates all links *)
}

let create ?(max_block = 128) ?(max_blocks = 65_536) ~phys () =
  let t =
    {
      phys;
      page_size = Phys.page_size phys;
      blocks = Ints.Table.create 1024;
      gen = Array.make (Phys.frame_count phys) 0;
      stats = { hits = 0; misses = 0; invalidations = 0; blocks_built = 0; insns_built = 0 };
      max_block;
      max_blocks;
      scratch = Bytes.create (Phys.page_size phys);
      epoch = 0;
    }
  in
  Phys.set_write_watch phys
    (Some
       (fun frame ->
         t.gen.(frame) <- t.gen.(frame) + 1;
         t.stats.invalidations <- t.stats.invalidations + 1));
  t

let stats t = t.stats

(* Drop every cached block. Generations are kept (monotonic per machine
   lifetime) so blocks cached before the clear can never validate again;
   the epoch bump retires every chain link made before it. *)
let clear t =
  Ints.Table.reset t.blocks;
  t.epoch <- t.epoch + 1

let build t pa0 =
  let frame = pa0 / t.page_size in
  let off0 = pa0 mod t.page_size in
  (* Raw frame snapshot into the reused scratch buffer: no ECC scrub, no
     cache traffic, no per-build string — construction is side-effect-free,
     all architectural fetch effects are replayed at dispatch time. The
     unsafe view is sound because [Decode.of_string] does not retain it. *)
  Phys.blit_to_bytes t.phys ~frame t.scratch;
  let bytes = Bytes.unsafe_to_string t.scratch in
  let rec collect off acc count =
    if count >= t.max_block then List.rev acc
    else
      match Isa.Decode.of_string bytes off with
      | Error _ ->
        (* Bad opcode, bad register, or operands running off the page edge:
           end the block before the undecodable instruction — dispatch
           falls back to the exact interpreter when it reaches this pc. *)
        List.rev acc
      | Ok insn ->
        if Isa.Insn.is_block_end insn then List.rev (insn :: acc)
        else collect (off + Isa.Insn.size insn) (insn :: acc) (count + 1)
  in
  let insns = Array.of_list (collect off0 [] 0) in
  let n = Array.length insns in
  let sizes = Array.map Isa.Insn.size insns in
  let offs = Array.make (max n 1) 0 in
  for i = 1 to n - 1 do
    offs.(i) <- offs.(i - 1) + sizes.(i - 1)
  done;
  t.stats.blocks_built <- t.stats.blocks_built + 1;
  t.stats.insns_built <- t.stats.insns_built + n;
  let b =
    {
      b_pa0 = pa0;
      b_frame = frame;
      b_gen = t.gen.(frame);
      insns;
      sizes;
      offs;
      n;
      next0 = none;
      next1 = none;
      links_epoch = t.epoch;
    }
  in
  if Ints.Table.length t.blocks >= t.max_blocks then clear t;
  Ints.Table.replace t.blocks pa0 b;
  Phys.watch_frame t.phys ~frame;
  b

let lookup t pa0 =
  match Ints.Table.find t.blocks pa0 with
  | b ->
    if b.b_gen = t.gen.(b.b_frame) then begin
      t.stats.hits <- t.stats.hits + 1;
      b
    end
    else begin
      t.stats.misses <- t.stats.misses + 1;
      build t pa0
    end
  | exception Not_found ->
    t.stats.misses <- t.stats.misses + 1;
    build t pa0

let[@inline] linked t s pa0 = s.b_pa0 = pa0 && s.b_gen = t.gen.(s.b_frame)

(* [lookup t pa0] reached from block [b]: a remembered successor that is
   still the table's valid entry for [pa0] is returned with the same hit
   count [lookup] would make; otherwise [lookup] runs and its result
   becomes [b]'s newest link. *)
let follow t b pa0 =
  if b == none then lookup t pa0
  else begin
    if b.links_epoch <> t.epoch then begin
      b.next0 <- none;
      b.next1 <- none;
      b.links_epoch <- t.epoch
    end;
    let s0 = b.next0 in
    if linked t s0 pa0 then begin
      t.stats.hits <- t.stats.hits + 1;
      s0
    end
    else
      let s1 = b.next1 in
      if linked t s1 pa0 then begin
        t.stats.hits <- t.stats.hits + 1;
        s1
      end
      else begin
        (* if this build resets the table ([max_blocks]), the links made
           here are in the old epoch and die at the next [follow] *)
        let s = lookup t pa0 in
        b.next1 <- s0;
        b.next0 <- s;
        s
      end
  end

let generations t = t.gen
