(* Fails if a library source mentions [Marshal.] or [Random.]. Neither is
   stable across OCaml versions, and unmarshalling hostile bytes is unsafe:
   the simulator's one PRNG is [Kernel.Prng], and snapshots go through
   [Snap.Codec]. Usage: lint.exe FILE... *)

let banned = [ "Marshal."; "Random." ]

let contains line needle =
  let n = String.length needle in
  let rec go i = i + n <= String.length line && (String.sub line i n = needle || go (i + 1)) in
  go 0

let () =
  let bad = ref 0 in
  Array.iteri
    (fun i file ->
      if i > 0 then
        In_channel.with_open_text file In_channel.input_lines
        |> List.iteri (fun ln line ->
               if List.exists (contains line) banned then begin
                 incr bad;
                 Printf.printf "%s:%d: %s\n" file (ln + 1) line
               end))
    Sys.argv;
  if !bad > 0 then begin
    Printf.printf "lint: %d line(s) use Marshal or Random under lib/\n" !bad;
    exit 1
  end
