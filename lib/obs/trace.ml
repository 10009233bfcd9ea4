type phase = Instant | Begin | End | Complete of int

type event = {
  ts : int;
  cat : string;
  name : string;
  ph : phase;
  args : (string * Json.t) list;
}

(* ------------------------------------------------------------------ *)
(* Bounded ring-buffer sink                                            *)
(* ------------------------------------------------------------------ *)

type ring = {
  capacity : int;
  buf : event option array;
  mutable next : int;  (* slot the next event is written to *)
  mutable length : int;
  mutable dropped : int;
}

let create ?(capacity = 8192) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { capacity; buf = Array.make capacity None; next = 0; length = 0; dropped = 0 }

let length r = r.length
let dropped r = r.dropped

let add r e =
  if r.length = r.capacity then r.dropped <- r.dropped + 1
  else r.length <- r.length + 1;
  r.buf.(r.next) <- Some e;
  r.next <- (r.next + 1) mod r.capacity

(* Oldest retained event first. *)
let to_list r =
  let start = (r.next - r.length + r.capacity) mod r.capacity in
  List.init r.length (fun i ->
      match r.buf.((start + i) mod r.capacity) with
      | Some e -> e
      | None -> assert false)

(* ------------------------------------------------------------------ *)
(* JSON export / import                                                *)
(* ------------------------------------------------------------------ *)

let phase_code = function
  | Instant -> "i"
  | Begin -> "B"
  | End -> "E"
  | Complete _ -> "X"

let event_to_json e =
  let base =
    [
      ("ts", Json.Int e.ts);
      ("ph", Json.Str (phase_code e.ph));
      ("cat", Json.Str e.cat);
      ("name", Json.Str e.name);
    ]
  in
  let dur = match e.ph with Complete d -> [ ("dur", Json.Int d) ] | _ -> [] in
  let args = match e.args with [] -> [] | a -> [ ("args", Json.Obj a) ] in
  Json.Obj (base @ dur @ args)

let event_of_json j =
  let ( let* ) o f = match o with Some v -> f v | None -> Error "malformed event" in
  let* ts = Option.bind (Json.member "ts" j) Json.to_int in
  let* ph_code = Option.bind (Json.member "ph" j) Json.to_str in
  let* cat = Option.bind (Json.member "cat" j) Json.to_str in
  let* name = Option.bind (Json.member "name" j) Json.to_str in
  let args =
    match Json.member "args" j with Some (Json.Obj fields) -> fields | _ -> []
  in
  match ph_code with
  | "i" -> Ok { ts; cat; name; ph = Instant; args }
  | "B" -> Ok { ts; cat; name; ph = Begin; args }
  | "E" -> Ok { ts; cat; name; ph = End; args }
  | "X" ->
    let* dur = Option.bind (Json.member "dur" j) Json.to_int in
    Ok { ts; cat; name; ph = Complete dur; args }
  | other -> Error (Printf.sprintf "unknown phase %S" other)

let jsonl events =
  let buf = Buffer.create 1024 in
  List.iter
    (fun e ->
      Json.to_buffer buf (event_to_json e);
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf

let of_jsonl s =
  let lines = String.split_on_char '\n' s in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | "" :: rest -> go acc rest
    | line :: rest -> (
      match Json.of_string line with
      | Error msg -> Error msg
      | Ok j -> (
        match event_of_json j with
        | Error msg -> Error msg
        | Ok e -> go (e :: acc) rest))
  in
  go [] lines

let write_jsonl oc events = output_string oc (jsonl events)

(* Chrome about://tracing (trace_event) format: the cycle clock plays the
   role of the microsecond timestamp. *)
let chrome events =
  let one e =
    let base =
      [
        ("name", Json.Str e.name);
        ("cat", Json.Str e.cat);
        ("ph", Json.Str (phase_code e.ph));
        ("ts", Json.Int e.ts);
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
      ]
    in
    let dur = match e.ph with Complete d -> [ ("dur", Json.Int d) ] | _ -> [] in
    let scope = match e.ph with Instant -> [ ("s", Json.Str "g") ] | _ -> [] in
    let args = match e.args with [] -> [] | a -> [ ("args", Json.Obj a) ] in
    Json.Obj (base @ dur @ scope @ args)
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.map one events));
      ("displayTimeUnit", Json.Str "ns");
    ]
