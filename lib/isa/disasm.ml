let region ?(max_insns = max_int) bytes ~pos ~len =
  let stop = min (String.length bytes) (pos + len) in
  let rec go acc count p =
    if p >= stop || count >= max_insns then List.rev acc
    else
      match Decode.of_string bytes p with
      | Ok insn -> go ((p, Ok insn) :: acc) (count + 1) (p + Insn.size insn)
      | Error e -> go ((p, Error e) :: acc) (count + 1) (p + 1)
  in
  go [] 0 pos

let pp_line ~base ppf (off, r) =
  match r with
  | Ok insn -> Fmt.pf ppf "%08x:  %a" (base + off) Insn.pp insn
  | Error (Decode.Bad_opcode op) -> Fmt.pf ppf "%08x:  (bad opcode 0x%02x)" (base + off) op
  | Error (Decode.Bad_register v) -> Fmt.pf ppf "%08x:  (bad register %d)" (base + off) v
  | Error Decode.Truncated -> Fmt.pf ppf "%08x:  (truncated)" (base + off)

let to_string ?(base = 0) ?max_insns bytes ~pos ~len =
  region ?max_insns bytes ~pos ~len
  |> List.map (fun line -> Fmt.str "%a" (pp_line ~base) line)
  |> String.concat "\n"

let hex_dump ?(width = 16) bytes ~pos ~len =
  let stop = min (String.length bytes) (pos + len) in
  let buf = Buffer.create 128 in
  let rec rows p =
    if p < stop then begin
      Buffer.add_string buf (Fmt.str "%04x: " (p - pos));
      for i = p to min (p + width - 1) (stop - 1) do
        Buffer.add_string buf (Fmt.str "%02x " (Char.code bytes.[i]))
      done;
      Buffer.add_char buf '\n';
      rows (p + width)
    end
  in
  rows pos;
  Buffer.contents buf
