(** The paper's performance experiments (Figs. 6–9) and ablations as data
    producers; rendering lives in [bench/main.ml].

    Every producer takes [?jobs]: it assembles the experiment specs for
    all the machines it needs and runs them through {!Harness.run_fleet}
    on that many worker domains (default 1 — sequential). Results come
    back in submission order, so the produced points are bit-identical
    for any [jobs]. *)

type point = { x : string; value : float }

val apache_requests : int
val ctxsw_iters : int

(** {2 Experiment specs} — the building blocks, exposed for composition
    (e.g. [bench --json] fans a custom spec list through the fleet). *)

val apache_spec : defense:Defense.t -> size:int -> requests:int -> Harness.spec
val gzip_spec : defense:Defense.t -> size:int -> Harness.spec
val ctxsw_spec : defense:Defense.t -> iters:int -> Harness.spec

(** {2 Single-machine runners} *)

val run_apache :
  ?obs:Obs.t -> defense:Defense.t -> size:int -> requests:int -> unit -> Harness.result
val run_gzip : ?obs:Obs.t -> defense:Defense.t -> size:int -> unit -> Harness.result
val run_ctxsw : ?obs:Obs.t -> defense:Defense.t -> iters:int -> unit -> Harness.result

(** {2 Normalized scores} *)

val apache_normalized :
  ?jobs:int -> defense:Defense.t -> size:int -> requests:int -> unit -> float
val ctxsw_normalized : ?jobs:int -> defense:Defense.t -> iters:int -> unit -> float

val nbench_results : ?jobs:int -> defense:Defense.t -> unit -> (string * float) list
(** Normalized score per nbench kernel. *)

val unixbench_pieces : ?jobs:int -> defense:Defense.t -> unit -> (string * float) list
(** Normalized score per Unixbench piece. *)

(** {2 Figures} *)

val fig6 : ?obs:Obs.t -> ?jobs:int -> ?defense:Defense.t -> unit -> point list
(** Apache-32KB, gzip, nbench, Unixbench index under stand-alone split. *)

val fig7 : ?obs:Obs.t -> ?jobs:int -> ?defense:Defense.t -> unit -> point list
(** The contrived stress tests: pipe-based ctxsw and Apache-1KB. *)

val fig8 :
  ?obs:Obs.t -> ?jobs:int -> ?defense:Defense.t -> ?sizes_kb:int list -> unit -> point list
(** Apache throughput across served page sizes. *)

val fig9 : ?obs:Obs.t -> ?jobs:int -> ?fractions:int list -> unit -> point list
(** Pipe-based ctxsw with a fraction of pages split, the rest NX. *)

(** {2 Ablations} *)

val memory_overhead : ?jobs:int -> unit -> int * int * int
(** Peak frames: (unprotected eager, split eager, split demand). *)

val itlb_method_ablation : ?jobs:int -> ?iters:int -> unit -> int * int
(** Pipe-ctxsw cycles: (single-step ITLB load, ret-gadget variant). *)

val mechanisms_ablation : ?jobs:int -> ?iters:int -> unit -> (string * float) list
(** Normalized ctxsw performance of each implementation mechanism
    (tlb-desync software patch, §4.7 soft-TLB port, §3.3.1 dual-CR3
    hardware), each against the stock kernel on its own hardware. *)

val tlb_capacity_sweep :
  ?jobs:int -> ?capacities:int list -> ?iters:int -> unit -> (int * float) list
(** Stand-alone ctxsw overhead vs TLB capacity: flat, because the cost is
    flush-driven (one trap per split page per switch), not reach-driven. *)

val soft_tlb_ablation : ?jobs:int -> ?iters:int -> unit -> float * float
(** Normalized pipe-ctxsw performance of split memory on (x86 TLB-desync
    hardware, software-managed-TLB hardware), each against the stock kernel
    on the same hardware — the paper's §4.7 expectation is that the second
    is noticeably higher. *)
