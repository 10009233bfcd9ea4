(** Guest benchmark programs mirroring the paper's §6.2 workloads.

    What matters is the interaction {e shape}: the Apache pair context-
    switches per request and streams the response through memory; gzip
    blocks on disk-style I/O; nbench is tight compute over a small working
    set; the Unixbench pieces isolate syscall, pipe, context-switch, fork
    and copy costs. *)

val apache_server : ?ws_pages:int -> size:int -> unit -> Kernel.Image.t
(** Serve [size]-byte responses; each request walks [ws_pages] pages of
    server state (config/logging/connection structures). *)

val apache_client : size:int -> requests:int -> unit -> Kernel.Image.t
(** ApacheBench-style client: request, drain [size] bytes, repeat. *)

val gzip_disk : size:int -> block:int -> unit -> Kernel.Image.t
(** The "disk": streams [size] input bytes in [block]-byte writes. *)

val gzip : ?dict_pages:int -> size:int -> unit -> Kernel.Image.t
(** Streaming compressor: read a block, refresh a [dict_pages]-page
    dictionary, rolling-hash every byte; repeat until EOF. *)

val nbench : iters:int -> unit -> Kernel.Image.t
(** Arithmetic/bitfield passes over a one-page working set. *)

val numeric_sort : ?n:int -> rounds:int -> unit -> Kernel.Image.t
(** Insertion sort over a word array (nbench "numeric sort"). *)

val string_sort : ?n:int -> rounds:int -> unit -> Kernel.Image.t
(** Seed-and-bubble passes over a byte array (nbench "string sort"). *)

val fourier : ?n:int -> rounds:int -> unit -> Kernel.Image.t
(** Fixed-point multiply-accumulate loops (nbench "fourier"). *)

val nbench_suite : scale:int -> (string * Kernel.Image.t) list
(** The four compute kernels, workload scaled by [scale]. *)

val syscall_bench : iters:int -> unit -> Kernel.Image.t
val pipe_throughput : iters:int -> unit -> Kernel.Image.t
(** Self-pipe write/read of 512-byte blocks (no context switches). *)

val ctxsw_ping : iters:int -> unit -> Kernel.Image.t
(** Pipe-based context switching, initiator side: walk the working set,
    send the token, wait for the echo. *)

val ctxsw_pong : unit -> Kernel.Image.t
val spawn_bench : iters:int -> unit -> Kernel.Image.t
(** fork + child exit + waitpid, [iters] times. *)

val fscopy : passes:int -> size:int -> unit -> Kernel.Image.t
(** Word-wise copies between two heap buffers (filesystem-ish traffic). *)

val tlb_walker : ?pages:int -> rounds:int -> unit -> Kernel.Image.t
(** TLB pressure kernel: per round, walk [pages] data pages in order,
    re-touching the hot page (page 0) between steps — the hot/cold reuse
    pattern that separates LRU from FIFO once [pages] exceeds the TLB
    capacity. Default 12 pages. *)

val sparse : ?data_pages:int -> ?touch_pages:int -> unit -> Kernel.Image.t
(** Large data segment, tiny touched prefix — separates eager page
    duplication from demand splitting in the memory-overhead ablation. *)

val scale_unit : ?ro_pages:int -> ?rounds:int -> unit -> Kernel.Image.t
(** Scale-out unit process: walk [ro_pages] read-only pages [rounds]
    times, then exit. All image-backed memory is read-only, so under
    loader COW ([share_images]) N identical instances share every image
    frame — the sublinear-memory demonstrator for 10k-process machines. *)

val serve_server : ?ws_pages:int -> size:int -> unit -> Kernel.Image.t
(** Serving-benchmark server: [apache_server]'s shape, but each request
    carries a byte offset into a [ws_pages]-page popularity-addressed
    working set (the load generator's Zipf pick), so the handler's memory
    traffic follows the offered load. Responds with [size] bytes. *)

val serve_client :
  mode:[ `Closed | `Open ] ->
  size:int ->
  schedule:(int * int) array ->
  unit ->
  Kernel.Image.t
(** Serving-benchmark client replaying a precomputed schedule of
    (page_byte_offset, pace) pairs from rodata. Closed-loop pace = think
    cycles slept after draining each response; open-loop pace = absolute
    release cycle, held via time() + nanosleep (degrades to back-to-back
    past saturation). Expects [size]-byte responses on fd 0/1. *)
