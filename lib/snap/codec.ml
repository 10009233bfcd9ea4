exception Corrupt of string

let corrupt fmt = Fmt.kstr (fun s -> raise (Corrupt s)) fmt

type reader = { s : string; mutable pos : int }
type 'a t = { w : Buffer.t -> 'a -> unit; r : reader -> 'a }

let put_u8 b v = Buffer.add_char b (Char.unsafe_chr (v land 0xFF))

let get_u8 r =
  if r.pos >= String.length r.s then corrupt "truncated at byte %d" r.pos;
  let v = Char.code (String.unsafe_get r.s r.pos) in
  r.pos <- r.pos + 1;
  v

(* zigzag so negative values (register contents, error returns held in
   saved GPRs) stay within the unsigned 62-bit range of the encoding *)
let put_int b v =
  let z = (v lsl 1) lxor (v asr 62) in
  for i = 0 to 7 do
    put_u8 b (z lsr (8 * i))
  done

let get_int r =
  let z = ref 0 in
  for i = 0 to 7 do
    z := !z lor (get_u8 r lsl (8 * i))
  done;
  let z = !z in
  (z lsr 1) lxor -(z land 1)

(* A count of items at least [width] bytes wide. It is compared with the
   bytes left, never as [pos + n], which overflows on a hostile [n]. *)
let get_len r ~width what =
  let n = get_int r in
  if n < 0 || n > (String.length r.s - r.pos) / width then
    corrupt "bad %s length %d at byte %d" what n (r.pos - 8);
  n

let u8 = { w = put_u8; r = get_u8 }
let int = { w = put_int; r = get_int }

let int64 =
  {
    w = Buffer.add_int64_le;
    r =
      (fun r ->
        if String.length r.s - r.pos < 8 then corrupt "truncated at byte %d" r.pos;
        let v = String.get_int64_le r.s r.pos in
        r.pos <- r.pos + 8;
        v);
  }

let conv to_wire of_wire c =
  { w = (fun b v -> c.w b (to_wire v)); r = (fun r -> of_wire (c.r r)) }

let bool =
  conv Bool.to_int
    (function 0 -> false | 1 -> true | n -> corrupt "bad bool tag %d" n)
    u8

let str =
  {
    w = (fun b s -> put_int b (String.length s); Buffer.add_string b s);
    r =
      (fun r ->
        let n = get_len r ~width:1 "string" in
        let s = String.sub r.s r.pos n in
        r.pos <- r.pos + n;
        s);
  }

(* The per-element loops of [int_array] and [list] stay primitive: decode
   speed is a measured layer of the replay benchmark. *)
let int_array =
  {
    w = (fun b a -> put_int b (Array.length a); Array.iter (put_int b) a);
    r = (fun r -> Array.init (get_len r ~width:8 "array") (fun _ -> get_int r));
  }

(* Every codec writes at least one byte, so a list is no longer than the
   bytes left. *)
let list c =
  {
    w = (fun b xs -> put_int b (List.length xs); List.iter (c.w b) xs);
    r = (fun r -> List.init (get_len r ~width:1 "list") (fun _ -> c.r r));
  }

let opt c =
  {
    w = (fun b -> function None -> put_u8 b 0 | Some v -> put_u8 b 1; c.w b v);
    r = (fun r -> if bool.r r then Some (c.r r) else None);
  }

(* Reads are sequenced with [let]: tuple, record and argument positions
   evaluate right to left. *)
let pair a b =
  {
    w = (fun buf (x, y) -> a.w buf x; b.w buf y);
    r = (fun r -> let x = a.r r in let y = b.r r in (x, y));
  }

let triple a b c =
  {
    w = (fun buf (x, y, z) -> a.w buf x; b.w buf y; c.w buf z);
    r = (fun r -> let x = a.r r in let y = b.r r in let z = c.r r in (x, y, z));
  }

let tag what n r =
  let i = get_u8 r in
  if i >= n then corrupt "bad %s tag %d at byte %d" what i (r.pos - 1);
  i

let enum what cases =
  let cases = Array.of_list cases in
  let rec index v i =
    if i = Array.length cases then invalid_arg ("Codec.enum: unlisted " ^ what)
    else if cases.(i) = v then i
    else index v (i + 1)
  in
  { w = (fun b v -> put_u8 b (index v 0)); r = (fun r -> cases.(tag what (Array.length cases) r)) }

type ('r, 'c, 'k) fields = { fw : Buffer.t -> 'r -> unit; fr : reader -> 'c -> 'k }

let record () = { fw = (fun _ _ -> ()); fr = (fun _ k -> k) }

let ( |+ ) f (c, get) =
  {
    fw = (fun b v -> f.fw b v; c.w b (get v));
    fr = (fun r k -> let k = f.fr r k in let x = c.r r in k x);
  }

let seal make f = { w = f.fw; r = (fun r -> f.fr r make) }

type 'a case = Case : 'b t * ('b -> 'a) * ('a -> 'b option) -> 'a case

let case c inject project = Case (c, inject, project)

let variant what cases =
  let cases = Array.of_list cases in
  let rec put b v i =
    if i = Array.length cases then invalid_arg ("Codec.variant: no case for " ^ what);
    let (Case (c, _, project)) = cases.(i) in
    match project v with Some x -> put_u8 b i; c.w b x | None -> put b v (i + 1)
  in
  {
    w = (fun b v -> put b v 0);
    r =
      (fun r ->
        let (Case (c, inject, _)) = cases.(tag what (Array.length cases) r) in
        inject (c.r r));
  }

let encode ~magic c v =
  let b = Buffer.create 65536 in
  Buffer.add_string b magic;
  c.w b v;
  Buffer.contents b

let decode ~magic c s =
  let n = String.length magic in
  if String.length s < n || String.sub s 0 n <> magic then corrupt "expected %S at byte 0" magic;
  let r = { s; pos = n } in
  let v = c.r r in
  if r.pos <> String.length s then corrupt "trailing bytes at byte %d" r.pos;
  v
