(* Host-speed probe: a fixed program on a tiny register machine, in ns per
   interpreted instruction. Like the simulator it dispatches on a variant
   per instruction over a small register file and memory, so host
   contention slows both alike. It lives here and allocates nothing, so
   no change to the simulator, its GC settings or its code moves it; only
   the host's speed does. *)

type op =
  | Li of int * int
  | Add of int * int * int
  | Addi of int * int * int
  | And of int * int * int
  | Xor of int * int * int
  | Mul of int * int * int
  | Shr of int * int * int
  | Ld of int * int
  | St of int * int
  | Bodd of int * int  (* branch if the register is odd *)
  | Blt of int * int * int
  | Jmp of int

(* An LCG walks 64 KiB of memory, mixing each loaded word and storing it
   back, with a data-dependent branch per step. *)
let program =
  [|
    Li (0, 0);
    Li (1, 12345);
    Li (5, 0x3FFFFFFF);
    Li (6, 8191);
    Li (7, 1000);
    (* 5: loop *)
    Mul (1, 1, 1);
    Addi (1, 1, 12345);
    And (1, 1, 5);
    And (2, 1, 6);
    Ld (3, 2);
    Xor (3, 3, 1);
    Shr (4, 3, 7);
    Bodd (4, 16);
    Addi (3, 3, 1);
    St (2, 3);
    Jmp 18;
    (* 16 *)
    Add (3, 3, 0);
    St (2, 3);
    (* 18 *)
    Addi (0, 0, 1);
    Blt (0, 7, 5);
    Li (0, 0);
    Jmp 5;
  |]

let memory = Array.make 8192 0
let regs = Array.make 8 0

let interpret steps =
  let pc = ref 0 in
  for _ = 1 to steps do
    match program.(!pc) with
    | Li (d, v) ->
      regs.(d) <- v;
      incr pc
    | Add (d, a, b) ->
      regs.(d) <- regs.(a) + regs.(b);
      incr pc
    | Addi (d, a, v) ->
      regs.(d) <- regs.(a) + v;
      incr pc
    | And (d, a, b) ->
      regs.(d) <- regs.(a) land regs.(b);
      incr pc
    | Xor (d, a, b) ->
      regs.(d) <- regs.(a) lxor regs.(b);
      incr pc
    | Mul (d, a, b) ->
      regs.(d) <- regs.(a) * (regs.(b) lor 1);
      incr pc
    | Shr (d, a, b) ->
      regs.(d) <- regs.(a) lsr (regs.(b) land 31);
      incr pc
    | Ld (d, a) ->
      regs.(d) <- memory.(regs.(a) land 8191);
      incr pc
    | St (a, s) ->
      memory.(regs.(a) land 8191) <- regs.(s);
      incr pc
    | Bodd (r, t) -> if regs.(r) land 1 <> 0 then pc := t else incr pc
    | Blt (a, b, t) -> if regs.(a) < regs.(b) then pc := t else incr pc
    | Jmp t -> pc := t
  done

let steps = 4_000_000

(* Timed after an untimed pass that brings its memory back into cache. *)
let ns_per_step () =
  interpret (steps / 16);
  let t0 = Span.now_ns () in
  interpret steps;
  float_of_int (Span.now_ns () - t0) /. float_of_int steps
