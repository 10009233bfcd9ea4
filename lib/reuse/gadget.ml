(* Gadget scanner: walk the decoder across *every byte offset* of an
   image's executable segments and index the short instruction sequences
   that end in a control transfer the attacker steers (ret, jmp reg,
   call reg).

   Scanning at every offset, not just instruction boundaries, is the whole
   point: on a variable-length ISA the bytes *inside* a legitimate
   instruction decode to different instructions at a one-byte shift, so an
   innocent [mov edx, 0x00320308] carries a perfectly good
   [pop ebx; ret] two bytes in. These unintended sequences are what ROP
   lives on, and none of them is ever *written* by the attacker — split
   memory and NX, which police where instruction bytes come from, never
   see anything wrong. Totality over arbitrary offsets is guaranteed by
   [Isa.Decode.of_string] reporting [Truncated] at segment boundaries
   instead of fabricating phantom bytes. *)

type terminator = Ret | Jmp_reg of Isa.Reg.t | Call_reg of Isa.Reg.t

type t = {
  addr : int;  (** virtual address of the first instruction *)
  insns : Isa.Insn.t list;  (** the sequence, terminator included *)
  terminator : terminator;
}

let size g = List.fold_left (fun n i -> n + Isa.Insn.size i) 0 g.insns

let pp ppf g =
  Fmt.pf ppf "%08x:  %s" g.addr
    (String.concat "; " (List.map Isa.Insn.to_string g.insns))

(* Walk forward from one byte offset, collecting at most [max_insns]
   instructions; a gadget is recorded iff a terminator is reached before
   the window closes or decoding fails. *)
let at ?(max_insns = 4) ~base bytes pos =
  let rec walk acc n p =
    if n >= max_insns then None
    else
      match Isa.Decode.of_string bytes p with
      | Error _ -> None
      | Ok insn -> (
        match insn with
        | Isa.Insn.Ret ->
          Some { addr = base + pos; insns = List.rev (insn :: acc); terminator = Ret }
        | Isa.Insn.Jmp_r r ->
          Some { addr = base + pos; insns = List.rev (insn :: acc); terminator = Jmp_reg r }
        | Isa.Insn.Call_r r ->
          Some
            { addr = base + pos; insns = List.rev (insn :: acc); terminator = Call_reg r }
        | Isa.Insn.Hlt | Isa.Insn.Int _ | Isa.Insn.Nop | Isa.Insn.Mov_ri _
        | Isa.Insn.Mov_rr _ | Isa.Insn.Load _ | Isa.Insn.Store _ | Isa.Insn.Loadb _
        | Isa.Insn.Storeb _ | Isa.Insn.Push _ | Isa.Insn.Pop _ | Isa.Insn.Lea _
        | Isa.Insn.Add _ | Isa.Insn.Sub _ | Isa.Insn.Add_ri _ | Isa.Insn.Cmp _
        | Isa.Insn.Cmp_ri _ | Isa.Insn.And_ _ | Isa.Insn.Or_ _ | Isa.Insn.Xor _
        | Isa.Insn.Mul _ | Isa.Insn.Shl _ | Isa.Insn.Shr _ | Isa.Insn.Jmp _
        | Isa.Insn.Jz _ | Isa.Insn.Jnz _ | Isa.Insn.Jl _ | Isa.Insn.Jge _
        | Isa.Insn.Call _ ->
          walk (insn :: acc) (n + 1) (p + Isa.Insn.size insn))
  in
  walk [] 0 pos

let scan_segment ?max_insns ~base bytes =
  let out = ref [] in
  for pos = String.length bytes - 1 downto 0 do
    match at ?max_insns ~base bytes pos with
    | Some g -> out := g :: !out
    | None -> ()
  done;
  !out

let executable_kind = function
  | Kernel.Image.Code | Kernel.Image.Lib | Kernel.Image.Mixed -> true
  | Kernel.Image.Rodata | Kernel.Image.Data -> false

let scan_image ?max_insns (img : Kernel.Image.t) =
  List.concat_map
    (fun (s : Kernel.Image.segment) ->
      if executable_kind s.kind then scan_segment ?max_insns ~base:s.base s.bytes else [])
    img.segments

(* --- semantic lookups the chain builder uses --------------------------- *)

(* Smallest-address match keeps the builder deterministic. *)
let find gadgets p = List.find_opt p gadgets

let pop_ret gadgets reg =
  find gadgets (fun g ->
      match g.insns with [ Isa.Insn.Pop r; Isa.Insn.Ret ] -> r = reg | _ -> false)

let syscall_ret gadgets =
  find gadgets (fun g ->
      match g.insns with [ Isa.Insn.Int 0x80; Isa.Insn.Ret ] -> true | _ -> false)
