(* Declarative fault-injection plans: everything a campaign run needs to
   reproduce a faulty machine bit-for-bit — scenario, seed, fault classes,
   trigger window, budget — in one serializable value. *)

type fault_class =
  | Tlb_wrong_pfn
  | Tlb_wrong_perms
  | Tlb_phantom
  | Pte_flip
  | Frame_flip_code
  | Frame_flip_data
  | Alloc_exhaustion
  | Syscall_transient

let all_classes =
  [
    Tlb_wrong_pfn;
    Tlb_wrong_perms;
    Tlb_phantom;
    Pte_flip;
    Frame_flip_code;
    Frame_flip_data;
    Alloc_exhaustion;
    Syscall_transient;
  ]

let class_name = function
  | Tlb_wrong_pfn -> "tlb-wrong-pfn"
  | Tlb_wrong_perms -> "tlb-wrong-perms"
  | Tlb_phantom -> "tlb-phantom"
  | Pte_flip -> "pte-flip"
  | Frame_flip_code -> "frame-flip-code"
  | Frame_flip_data -> "frame-flip-data"
  | Alloc_exhaustion -> "alloc-exhaustion"
  | Syscall_transient -> "syscall-transient"

let class_of_name s = List.find_opt (fun c -> class_name c = s) all_classes

type trigger = { at_cycle : int; every : int; pid : int option; vpn : int option }

type t = {
  label : string;
  scenario : string;
  seed : int;
  classes : fault_class list;
  trigger : trigger;
  budget : int;
  fuel : int;
}

let classes_string classes = String.concat "," (List.map class_name classes)

(* Defaults sized to the canonical scenarios (a few thousand cycles end to
   end): first fire around cycle 2000, then every 600 cycles of scheduler
   boundaries until the budget is spent. *)
let make ?label ?(scenario = "benign") ?(seed = 7) ?(classes = all_classes)
    ?(at_cycle = 2_000) ?(every = 600) ?pid ?vpn ?(budget = 4) ?(fuel = 1_000_000) () =
  if budget < 0 then invalid_arg "Plan.make: negative budget";
  if classes = [] then invalid_arg "Plan.make: empty class list";
  let label =
    match label with
    | Some l -> l
    | None ->
      Fmt.str "%s@%s"
        (match classes with [ c ] -> class_name c | _ -> "mixed")
        scenario
  in
  { label; scenario; seed; classes; trigger = { at_cycle; every; pid; vpn }; budget; fuel }

let class_codec = Snap.Codec.enum "fault class" all_classes

(* [make]'s checks hold for a decoded plan too: the engine draws a class
   from a non-empty list and counts the budget down from zero. *)
let codec =
  let open Snap.Codec in
  let trigger =
    record ()
    |+ (int, fun t -> t.at_cycle)
    |+ (int, fun t -> t.every)
    |+ (opt int, fun t -> t.pid)
    |+ (opt int, fun t -> t.vpn)
    |> seal (fun at_cycle every pid vpn -> { at_cycle; every; pid; vpn })
  in
  record ()
  |+ (str, fun p -> p.label)
  |+ (str, fun p -> p.scenario)
  |+ (int, fun p -> p.seed)
  |+ (list class_codec, fun p -> p.classes)
  |+ (trigger, fun p -> p.trigger)
  |+ (int, fun p -> p.budget)
  |+ (int, fun p -> p.fuel)
  |> seal (fun label scenario seed classes trigger budget fuel ->
         if classes = [] then raise (Corrupt "plan: empty class list");
         if budget < 0 then raise (Corrupt "plan: negative budget");
         { label; scenario; seed; classes; trigger; budget; fuel })
