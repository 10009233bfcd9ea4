(* Golden files: [check name got] compares [got] with [name].golden and
   fails at the first line that differs. With REGEN_GOLDEN=DIR it writes
   DIR/[name].golden instead, only for an intended behaviour change:
     REGEN_GOLDEN=test/golden dune exec test/test_main.exe -- test trap

   The directory is found wherever the suite runs: [golden] under
   dune runtest (whose working directory is _build/default/test),
   [test/golden] from the repo root, else next to the executable. *)

let dir =
  List.find_opt Sys.file_exists [ "golden"; Filename.concat "test" "golden" ]
  |> Option.value
       ~default:(Filename.concat (Filename.dirname Sys.executable_name) "golden")

let rec first_diff i = function
  | [], [] -> None
  | a :: _, [] -> Some (i, a, "<missing>")
  | [], b :: _ -> Some (i, "<missing>", b)
  | a :: ta, b :: tb -> if a <> b then Some (i, a, b) else first_diff (i + 1) (ta, tb)

let check name got =
  let file = name ^ ".golden" in
  match Sys.getenv_opt "REGEN_GOLDEN" with
  | Some regen ->
    let path = Filename.concat regen file in
    Out_channel.with_open_bin path (fun oc -> output_string oc got);
    Fmt.epr "regenerated %s@." path
  | None ->
    let path = Filename.concat dir file in
    if not (Sys.file_exists path) then
      Alcotest.failf "missing golden file %s (run with REGEN_GOLDEN)" path;
    let want = In_channel.with_open_bin path In_channel.input_all in
    if got <> want then
      let split s = String.split_on_char '\n' s in
      match first_diff 1 (split want, split got) with
      | Some (ln, w, g) ->
        Alcotest.failf "%s differs at line %d:@.  golden: %s@.  got:    %s" file ln w g
      | None -> Alcotest.failf "%s differs (whitespace only?)" file
