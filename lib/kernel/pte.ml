type kind = Code | Rodata | Data | Bss | Heap | Stack | Mixed | Lib | Mmap

type split = {
  code_frame : int;
  mutable data_frame : int;
  mutable locked_to_data : bool;
}

type t = {
  vpn : int;
  kind : kind;
  mutable frame : int;
  mutable present : bool;
  mutable writable : bool;
  mutable user : bool;
  mutable nx : bool;
  mutable cow : bool;
  mutable orig_writable : bool;
  mutable split : split option;
}

let make ~vpn ~kind ~frame ~writable =
  {
    vpn;
    kind;
    frame;
    present = true;
    writable;
    user = true;
    nx = false;
    cow = false;
    orig_writable = writable;
    split = None;
  }

let word t =
  if t.present then Hw.Tlb.word ~frame:t.frame ~writable:t.writable ~user:t.user ~nx:t.nx
  else -1

let is_split t = t.split <> None

let restrict t = t.user <- false
let unrestrict t = t.user <- true

let data_frame t = match t.split with Some s -> s.data_frame | None -> t.frame

let code_frame t =
  match t.split with
  | Some s -> if s.locked_to_data then s.data_frame else s.code_frame
  | None -> t.frame
