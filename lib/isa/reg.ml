type t = EAX | ECX | EDX | EBX | ESP | EBP | ESI | EDI

let to_int = function
  | EAX -> 0
  | ECX -> 1
  | EDX -> 2
  | EBX -> 3
  | ESP -> 4
  | EBP -> 5
  | ESI -> 6
  | EDI -> 7

let of_int = function
  | 0 -> Some EAX
  | 1 -> Some ECX
  | 2 -> Some EDX
  | 3 -> Some EBX
  | 4 -> Some ESP
  | 5 -> Some EBP
  | 6 -> Some ESI
  | 7 -> Some EDI
  | _ -> None

let name = function
  | EAX -> "eax"
  | ECX -> "ecx"
  | EDX -> "edx"
  | EBX -> "ebx"
  | ESP -> "esp"
  | EBP -> "ebp"
  | ESI -> "esi"
  | EDI -> "edi"

let all = [ EAX; ECX; EDX; EBX; ESP; EBP; ESI; EDI ]
let pp ppf r = Fmt.string ppf (name r)
