(* Two rules over the project's sources. Usage: lint.exe ALLOWLIST FILE...

   - No library source mentions [Marshal.] or [Random.]. Neither is stable
     across OCaml versions, and unmarshalling hostile bytes is unsafe: the
     simulator's one PRNG is [Kernel.Prng], and snapshots go through
     [Snap.Codec].
   - Every [val] in a library [.mli] is named in some file other than its
     own module's [.ml] and [.mli] (a whole-word match, as [grep -w]), or
     is listed in ALLOWLIST as [<mli path> <name> <reason>]; an export
     nothing uses is deleted, not kept. '#' starts a comment line. *)

let banned = [ "Marshal."; "Random." ]

let contains line needle =
  let n = String.length needle in
  let rec go i = i + n <= String.length line && (String.sub line i n = needle || go (i + 1)) in
  go 0

(* Paths arrive relative to the rule's directory ("../../lib/hw/mmu.mli");
   report them from the project root. *)
let rec root_relative p =
  if String.starts_with ~prefix:"../" p then root_relative (String.sub p 3 (String.length p - 3))
  else p

let is_lib p = String.starts_with ~prefix:"lib/" p

let is_word_char = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false

let words text =
  let acc = ref [] and start = ref (-1) in
  String.iteri
    (fun i c ->
      if is_word_char c then (if !start < 0 then start := i)
      else if !start >= 0 then begin
        acc := String.sub text !start (i - !start) :: !acc;
        start := -1
      end)
    text;
  if !start >= 0 then acc := String.sub text !start (String.length text - !start) :: !acc;
  !acc

(* [val name :] and [val ( op ) :] declarations. *)
let vals text =
  List.filter_map
    (fun line ->
      let line = String.trim line in
      if not (String.starts_with ~prefix:"val " line) then None
      else
        match String.index_opt line ':' with
        | None -> None
        | Some i -> Some (String.trim (String.sub line 4 (i - 4))))
    (String.split_on_char '\n' text)

let read_allowlist file =
  In_channel.with_open_text file In_channel.input_lines
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "") with
         | [] -> None
         | w :: _ when w.[0] = '#' -> None
         | path :: name :: (_ :: _) -> Some (Ok (path, name))
         | _ -> Some (Error line))

let () =
  let allow_file = Sys.argv.(1) in
  let files =
    Array.to_list (Array.sub Sys.argv 2 (Array.length Sys.argv - 2))
    |> List.map (fun f -> (root_relative f, In_channel.with_open_bin f In_channel.input_all))
  in
  let bad = ref 0 in
  let fail fmt = incr bad; Printf.printf fmt in
  List.iter
    (fun (path, text) ->
      if is_lib path && Filename.check_suffix path ".ml" then
        List.iteri
          (fun ln line ->
            if List.exists (contains line) banned then
              fail "%s:%d: Marshal or Random under lib/: %s\n" path (ln + 1) line)
          (String.split_on_char '\n' text))
    files;
  (* word -> the files naming it *)
  let named = Hashtbl.create 65536 in
  List.iter
    (fun (path, text) ->
      List.iter
        (fun w ->
          match Hashtbl.find_opt named w with
          | Some (p :: _) when p = path -> ()
          | ps -> Hashtbl.replace named w (path :: Option.value ps ~default:[]))
        (words text))
    files;
  let allowed = ref [] in
  List.iter
    (function
      | Ok entry -> allowed := entry :: !allowed
      | Error line -> fail "%s: entry without a reason: %s\n" allow_file line)
    (read_allowlist allow_file);
  let used = Hashtbl.create 16 in
  List.iter
    (fun (mli, text) ->
      if is_lib mli && Filename.check_suffix mli ".mli" then
        let own p = p = mli || p = Filename.chop_suffix mli "i" in
        List.iter
          (fun name ->
            let elsewhere =
              if is_word_char name.[0] then
                List.exists (fun p -> not (own p))
                  (Option.value (Hashtbl.find_opt named name) ~default:[])
              else
                let op = String.trim (String.sub name 1 (String.length name - 2)) in
                List.exists (fun (p, t) -> (not (own p)) && contains t op) files
            in
            if not elsewhere then
              if List.mem (mli, name) !allowed then Hashtbl.replace used (mli, name) ()
              else fail "%s: val %s is named in no other file\n" mli name)
          (vals text))
    files;
  List.iter
    (fun (mli, name) ->
      if not (Hashtbl.mem used (mli, name)) then
        fail "%s: %s %s is used elsewhere or gone; drop the entry\n" allow_file mli name)
    !allowed;
  if !bad > 0 then begin
    Printf.printf "lint: %d problem(s)\n" !bad;
    exit 1
  end
