type source = Zero | Image_bytes of { base : int; bytes : string }

type region = {
  lo : int;
  mutable hi : int;
  kind : Pte.kind;
  mutable writable : bool;
  mutable execable : bool;
  source : source;
  mutable share : string option;
      (* content digest of the backing segment when this region's read-only
         pages may join the machine-wide shared-frame registry (loader
         COW). Derived perf-only state: not serialized — recomputed from
         the region source by [Machine.rebuild_shares] after a restore. *)
}

type t = {
  page_size : int;
  ptes : (int, Pte.t) Hashtbl.t;
  mutable regions : region list;
  mutable brk : int;
  mutable mmap_cursor : int;
  walker : int -> int;
  code_walker : int -> int;
  data_walker : int -> int;
}

let word_of ptes vpn = match Hashtbl.find ptes vpn with p -> Pte.word p | exception Not_found -> -1

(* Hardware-split views (§3.3.1): the code pagetable maps split pages to
   their code copy, the data pagetable to their data copy; everything else
   is shared. Both views are user-accessible — with dedicated hardware
   there is nothing to trap. *)
let view frame_of ptes vpn =
  match Hashtbl.find ptes vpn with
  | (p : Pte.t) ->
    if p.present then Hw.Tlb.word ~frame:(frame_of p) ~writable:p.writable ~user:true ~nx:p.nx
    else -1
  | exception Not_found -> -1

let create ~page_size =
  let ptes = Hashtbl.create 64 in
  {
    page_size;
    ptes;
    regions = [];
    brk = Layout.heap_base;
    mmap_cursor = Layout.mmap_base;
    (* built once: a context switch loads them without allocating *)
    walker = word_of ptes;
    code_walker = view Pte.code_frame ptes;
    data_walker = view Pte.data_frame ptes;
  }

let page_size t = t.page_size
let add_region t r = t.regions <- r :: t.regions
let regions t = t.regions
let rec region_in vpn = function
  | [] -> raise Not_found
  | r :: rest -> if vpn >= r.lo && vpn < r.hi then r else region_in vpn rest

let find_region_exn t vpn = region_in vpn t.regions

let find_region t vpn = match find_region_exn t vpn with r -> Some r | exception Not_found -> None

let pte t vpn = Hashtbl.find_opt t.ptes vpn
let find_pte t vpn = Hashtbl.find t.ptes vpn
let set_pte t (p : Pte.t) = Hashtbl.replace t.ptes p.vpn p
let iter_ptes t f = Hashtbl.iter (fun _ p -> f p) t.ptes
let mapped_count t = Hashtbl.length t.ptes

(* Contents a freshly demand-mapped page should start with: the matching
   slice of the backing image segment (zero-padded), or zeros. The blit
   variant writes into a caller-owned scratch buffer so the demand-paging
   hot path allocates nothing per fault. *)
let blit_page_content t region vpn buf =
  if Bytes.length buf < t.page_size then invalid_arg "Aspace.blit_page_content: buf too small";
  Bytes.fill buf 0 t.page_size '\000';
  match region.source with
  | Zero -> ()
  | Image_bytes { base; bytes } ->
    let page_start = (vpn * t.page_size) - base in
    let src_from = max 0 page_start in
    let dst_from = src_from - page_start in
    let len = min (String.length bytes - src_from) (t.page_size - dst_from) in
    if len > 0 then Bytes.blit_string bytes src_from buf dst_from len

let page_content t region vpn =
  let buf = Bytes.create t.page_size in
  blit_page_content t region vpn buf;
  Bytes.to_string buf
