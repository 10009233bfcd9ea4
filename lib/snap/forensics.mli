(** Forensic capture at the detection instant.

    {!arm} attaches to the machine probe's [event] slot, which sees every
    kernel event-log entry; the moment the split-memory defense reports
    [Injection_detected] (paper §4.5, Algorithm 3 — "the exact moment the
    first injected instruction is about to execute"), it freezes the whole
    machine into a snapshot, diffs the faulting page's pristine code copy
    against its data copy, and extracts the injected payload bytes from
    the diff. The capture happens synchronously inside
    the detection path, before any response mode (Break teardown, Forensics
    payload substitution) mutates the machine. *)

type diff_range = {
  dr_off : int;  (** page offset of the first differing byte *)
  dr_code : string;  (** code-copy bytes over the range *)
  dr_data : string;  (** data-copy bytes over the range *)
}

type page_diff = {
  pd_vpn : int;
  pd_code_frame : int;
  pd_data_frame : int;
  pd_ranges : diff_range list;  (** ascending; gaps <= {!gap_tolerance} merged *)
}

val gap_tolerance : int
(** Differing byte ranges separated by at most this many equal bytes are
    merged into one — injected payloads legitimately contain runs of 0x00
    (imm32 encodings, string terminators) that match the zero-filled code
    copy byte-for-byte. *)

type capture = {
  c_trigger : Snapshot.trigger;
  c_snapshot : Snapshot.t;  (** whole machine at the detection instant *)
  c_diff : page_diff option;  (** [None] when the faulting page is not split *)
  c_payload_off : int;  (** page offset the extracted payload starts at *)
  c_payload : string;  (** injected bytes (the merged range containing EIP) *)
  c_dir : string option;  (** artifact directory, when written *)
}

val page_diff : Kernel.Os.t -> pid:int -> addr:int -> page_diff option
(** Diff the code copy against the data copy of the page mapping [addr] in
    process [pid]. [None] if the process/page is unknown or not split. *)

val arm : ?dir:string -> ?all:bool -> Kernel.Os.t -> capture list ref
(** Start capturing. Returns the (initially empty) capture list, appended
    to on each detection — by default only the first detection is captured
    ([all:true] captures every one). When [dir] is given, each capture [k]
    writes [capture-k.snap] (+ manifest), [capture-k.payload.bin] and
    [capture-k.diff.json] beneath it (the directory is created). A second
    [arm] on the same machine replaces the first in the slot: the first
    list stops growing. *)
