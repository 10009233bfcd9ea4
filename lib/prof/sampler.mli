(** The profiler's bounded sample ring: preallocated parallel int arrays,
    overwritten oldest-first when full, with deterministic every-Nth
    decimation — the countdown is per-sampler simulated state, never wall
    clock, so a run and its snapshot replay take identical samples. *)

type sample = {
  cycle : int;  (** cost-model cycle stamp at the sampled translation *)
  pid : int;  (** owning process (0 = before the first context switch) *)
  vpn : int;
  access : Hw.Mmu.access;
  tlb_hit : bool;
  split_page : bool;  (** the sampled page was split at sample time *)
}

type t

val create : ?capacity:int -> rate:int -> unit -> t
(** [capacity] (default 8192, at most 2{^20}) bounds the ring; [rate] samples every Nth
    successful translation. @raise Invalid_argument unless both positive. *)

val rate : t -> int

val length : t -> int
(** Live samples in the ring. *)

val dropped : t -> int
(** Samples lost to ring wrap (oldest-first overwrite). *)

val seen : t -> int
(** Successful translations observed (sampled or not). *)

val taken : t -> int
(** Samples ever taken, [length + dropped]. *)

val tick : t -> bool
(** The decimation test: count one translation; [true] every [rate]-th
    call. Allocation-free. *)

val record :
  t -> cycle:int -> vpn:int -> access:Hw.Mmu.access -> tlb_hit:bool -> split:bool -> unit
(** Append a sample (owner = the sampler's current pid). Allocation-free. *)

val samples : t -> sample list
(** Live samples, oldest first. *)

(** {2 pid attribution} — the scheduler switch hook writes here *)

val set_pid : t -> int -> unit
val pid : t -> int

(** {2 Snapshot state} *)

val codec : t Snap.Codec.t
(** The complete sampler state (snapshot metadata value); a decoded
    sampler's [samples], decimation phase and overwrite behaviour match
    the original exactly. Decoding checks the header before it allocates
    the ring, and raises {!Snap.Codec.Corrupt} on malformed input. *)
