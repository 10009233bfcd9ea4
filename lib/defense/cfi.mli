(** Shadow stack + coarse-grained CFI — the defense class that covers the
    code-reuse attacks split memory concedes in the paper's §7.

    The monitor hooks the CPU's control transfers via
    [Kernel.Protection.ctrl_monitor] and enforces, per protected process:
    ret targets must be on the kernel-private shadow stack (pop-until-match
    tolerates longjmp) or, lacking history, call-preceded in the pristine
    text; indirect calls must target function entries (entry point,
    direct-call targets, address-taken constants); indirect jumps must
    target text at a call-preceded address or a function entry. Denials log
    [Injection_detected] and surface as #GP. *)

val protection :
  ?shadow_stack:bool ->
  ?coarse:bool ->
  ?over:Kernel.Protection.t ->
  unit ->
  Kernel.Protection.t
(** A CFI protection, optionally layered over another protection [over]
    (default: the stock kernel): all of [over]'s paging hooks are kept and
    its [ctrl_monitor] slot is filled with this monitor, so split memory's
    injection defense and the CFI reuse defense compose. *)
