type diff_range = { dr_off : int; dr_code : string; dr_data : string }

type page_diff = {
  pd_vpn : int;
  pd_code_frame : int;
  pd_data_frame : int;
  pd_ranges : diff_range list;
}

let gap_tolerance = 8

type capture = {
  c_trigger : Snapshot.trigger;
  c_snapshot : Snapshot.t;
  c_diff : page_diff option;
  c_payload_off : int;
  c_payload : string;
  c_dir : string option;
}

(* Merge differing offsets into ranges, bridging runs of <= gap_tolerance
   equal bytes: injected code contains legitimate zeros (imm32 operands,
   terminators) that coincide with the zero-filled code copy. *)
let diff_ranges code data =
  let n = String.length code in
  let ranges = ref [] in
  let cur = ref None in
  for i = 0 to n - 1 do
    if code.[i] <> data.[i] then
      match !cur with
      | None -> cur := Some (i, i)
      | Some (lo, hi) ->
        if i - hi <= gap_tolerance then cur := Some (lo, i)
        else begin
          ranges := (lo, hi) :: !ranges;
          cur := Some (i, i)
        end
  done;
  (match !cur with Some r -> ranges := r :: !ranges | None -> ());
  List.rev_map
    (fun (lo, hi) ->
      let len = hi - lo + 1 in
      { dr_off = lo; dr_code = String.sub code lo len; dr_data = String.sub data lo len })
    !ranges

let page_diff os ~pid ~addr =
  match Kernel.Os.proc os pid with
  | None -> None
  | Some p -> (
    let vpn = addr / Kernel.Os.page_size os in
    match Kernel.Aspace.pte p.aspace vpn with
    | Some ({ split = Some s; _ } as _pte) ->
      let phys = Kernel.Os.phys os in
      (* the pristine code copy, even if observe mode has since locked the
         mapping to the data side *)
      let code = Hw.Phys.to_string phys ~frame:s.code_frame in
      let data = Hw.Phys.to_string phys ~frame:s.data_frame in
      Some
        {
          pd_vpn = vpn;
          pd_code_frame = s.code_frame;
          pd_data_frame = s.data_frame;
          pd_ranges = diff_ranges code data;
        }
    | Some _ | None -> None)

let extract_payload diff ~eip_off =
  let containing =
    List.find_opt
      (fun r -> r.dr_off <= eip_off && eip_off < r.dr_off + String.length r.dr_data)
      diff.pd_ranges
  in
  let range =
    match containing with
    | Some _ -> containing
    | None -> List.find_opt (fun r -> r.dr_off >= eip_off) diff.pd_ranges
  in
  Option.map (fun r -> (r.dr_off, r.dr_data)) range

let hex s =
  String.concat "" (List.init (String.length s) (fun i -> Fmt.str "%02x" (Char.code s.[i])))

let diff_json c : Obs.Json.t =
  let open Obs.Json in
  Obj
    [
      ("pid", Int c.c_trigger.t_pid);
      ("eip", Str (Fmt.str "0x%08x" c.c_trigger.t_eip));
      ("mode", Str c.c_trigger.t_mode);
      ("cycle", Int (Snapshot.cycle c.c_snapshot));
      ( "page",
        match c.c_diff with
        | None -> Null
        | Some d ->
          Obj
            [
              ("vpn", Str (Fmt.str "0x%x" d.pd_vpn));
              ("code_frame", Int d.pd_code_frame);
              ("data_frame", Int d.pd_data_frame);
              ( "ranges",
                List
                  (List.map
                     (fun r ->
                       Obj
                         [
                           ("off", Int r.dr_off);
                           ("len", Int (String.length r.dr_data));
                           ("code", Str (hex r.dr_code));
                           ("data", Str (hex r.dr_data));
                         ])
                     d.pd_ranges) );
            ] );
      ("payload_off", Int c.c_payload_off);
      ("payload", Str (hex c.c_payload));
    ]

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_artifacts dir k c =
  mkdir_p dir;
  let path name = Filename.concat dir (Fmt.str "capture-%d%s" k name) in
  ignore (Snapshot.save ~file:(path ".snap") c.c_snapshot : int);
  Out_channel.with_open_bin (path ".payload.bin") (fun oc ->
      Out_channel.output_string oc c.c_payload);
  Out_channel.with_open_text (path ".diff.json") (fun oc ->
      Out_channel.output_string oc (Obs.Json.to_string (diff_json c));
      Out_channel.output_char oc '\n')

let arm ?dir ?(all = false) os =
  let captures = ref [] in
  let on_event = function
    | Kernel.Event_log.Injection_detected { pid; eip; mode }
      when all || !captures = [] ->
      let trigger = { Snapshot.t_pid = pid; t_eip = eip; t_mode = mode } in
      let diff = page_diff os ~pid ~addr:eip in
      let eip_off = eip mod Kernel.Os.page_size os in
      let payload_off, payload =
        match diff with
        | None -> (eip_off, "")
        | Some d -> (
          match extract_payload d ~eip_off with
          | Some (off, bytes) -> (off, bytes)
          | None -> (eip_off, ""))
      in
      let snapshot =
        Snapshot.checkpoint ~meta:[ ("source", "forensic-capture") ] ~trigger os
      in
      let k = List.length !captures in
      let c =
        {
          c_trigger = trigger;
          c_snapshot = snapshot;
          c_diff = diff;
          c_payload_off = payload_off;
          c_payload = payload;
          c_dir = dir;
        }
      in
      (match dir with Some d -> write_artifacts d k c | None -> ());
      let obs = Kernel.Os.obs os in
      if Obs.enabled obs then Obs.count obs "snap.captures";
      captures := !captures @ [ c ]
    | _ -> ()
  in
  (Kernel.Os.probe os).event <- Some on_event;
  captures
