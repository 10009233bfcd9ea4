(* Isolated timed loops over single layers' public functions, in ns per
   call. Each loop runs [batches] batches of [iters] calls and reports the
   median batch, so one preempted batch does not move the result. *)

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ns_per_call ~batches ~iters f =
  median
    (Array.init batches (fun _ ->
         let t0 = Span.now_ns () in
         for i = 0 to iters - 1 do
           f i
         done;
         float_of_int (Span.now_ns () - t0) /. float_of_int iters))

(* Guest code to decode: the Apache server image's text segment. *)
let guest_code () =
  let img = Workload.Guests.apache_server ~size:1024 () in
  (List.find (fun (s : Kernel.Image.segment) -> s.kind = Kernel.Image.Code) img.segments).bytes

(* Offsets of the instructions a linear sweep from byte 0 decodes. *)
let insn_offsets code =
  let rec go off acc =
    match Isa.Decode.of_string code off with
    | Ok insn -> go (off + Isa.Insn.size insn) (off :: acc)
    | Error _ -> Array.of_list (List.rev acc)
  in
  go 0 []

let identity_walk frames vpn =
  Some { Hw.Mmu.frame = vpn mod frames; present = true; writable = true; user = true; nx = false }

let run ~smoke =
  let batches = if smoke then 1 else 7 and scale = if smoke then 1_000 else 200_000 in
  let time ?(k = 1) f = ns_per_call ~batches ~iters:(k * scale) f in
  let code = guest_code () in
  let offs = insn_offsets code in
  let n_offs = Array.length offs in
  let decode =
    time (fun i -> ignore (Sys.opaque_identity (Isa.Decode.of_string code offs.(i mod n_offs))))
  in
  let phys = Hw.Phys.create ~frames:64 () in
  Hw.Phys.blit_from_string phys ~frame:1 ~off:0 (String.sub code 0 (min 4096 (String.length code)));
  let bb = Hw.Bbcache.create ~phys () in
  let pa0 = Hw.Phys.addr phys ~frame:1 ~off:0 in
  ignore (Hw.Bbcache.lookup bb pa0);
  let lookup = time ~k:4 (fun _ -> ignore (Sys.opaque_identity (Hw.Bbcache.lookup bb pa0))) in
  let mmu = Hw.Mmu.create ~phys ~cost:(Hw.Cost.create ()) () in
  Hw.Mmu.reload_cr3 mmu (identity_walk 64);
  let cap = Hw.Tlb.capacity (Hw.Mmu.dtlb mmu) in
  let translate vpn =
    let pa = Hw.Mmu.translate_result mmu ~from_user:true Hw.Mmu.Read (vpn * 4096) in
    ignore (Sys.opaque_identity pa)
  in
  let hit = time ~k:4 (fun _ -> translate 3) in
  (* cycling through 4x the TLB's capacity makes every FIFO lookup miss *)
  let miss = time (fun i -> translate (i mod (4 * cap))) in
  let tlb = Hw.Tlb.create ~name:"bench" ~capacity:cap () in
  for vpn = 0 to cap - 1 do
    Hw.Tlb.insert tlb { vpn; frame = vpn; user = true; writable = true; nx = false }
  done;
  let find =
    time ~k:4 (fun i -> ignore (Sys.opaque_identity (Hw.Tlb.find tlb (i land (cap - 1)))))
  in
  let read32 =
    time ~k:4 (fun i ->
        let v = Hw.Phys.read32 phys ~frame:(i land 63) ~off:((i * 4) land 4092) in
        ignore (Sys.opaque_identity v))
  in
  (* the block cache above installed the write watch; these frames are
     unflagged, the path every guest data store takes *)
  let write32 =
    time ~k:4 (fun i -> Hw.Phys.write32 phys ~frame:(32 + (i land 31)) ~off:((i * 4) land 4092) i)
  in
  let pipe = Kernel.Pipe.create ~name:"bench" () in
  let kib = String.make 1024 'x' in
  let pipe_rw =
    ns_per_call ~batches ~iters:(scale / 4) (fun _ ->
        ignore (Sys.opaque_identity (Kernel.Pipe.write pipe kib));
        ignore (Sys.opaque_identity (Kernel.Pipe.read pipe ~max:1024)))
  in
  [
    ("isa.decode.ns", decode);
    ("hw.bbcache.lookup_hit.ns", lookup);
    ("hw.mmu.translate_hit.ns", hit);
    ("hw.mmu.translate_miss.ns", miss);
    ("hw.tlb.find.ns", find);
    ("hw.phys.read32.ns", read32);
    ("hw.phys.write32_watched.ns", write32);
    ("kernel.pipe.write_read_1k.ns", pipe_rw);
  ]
