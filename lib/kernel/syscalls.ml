(* The syscall layer: a declarative table (number -> {name; handler})
   replacing the monolithic dispatch match the kernel grew up with.
   Handlers are registered data — adding a syscall touches nothing but the
   table — and every dispatch is traceable per-entry through the machine's
   probe ([probe.syscall], simctl --strace).

   The round trip allocates nothing a process does not ask for: the Sebek
   line of observe mode is only formatted once the process is under
   post-detection tracing ([p.sebek_active]), and read/write move bytes
   between guest frames and the pipe directly. *)

module M = Machine

type handler = M.t -> Proc.t -> unit

type entry = { name : string; handler : handler }

(* [frozen] tables refuse [register]: the shared default table is reached
   from every machine and every worker domain. *)
type table = { entries : (int, entry) Hashtbl.t; frozen : bool }

let create () = { entries = Hashtbl.create 32; frozen = false }

let register t n ~name handler =
  if t.frozen then
    invalid_arg
      (Fmt.str "Syscalls.register %d (%s): the default table is shared and read-only; \
                build your own with Syscalls.create" n name);
  Hashtbl.replace t.entries n { name; handler }

let find t n = Hashtbl.find_opt t.entries n

let name t n = match find t n with Some e -> e.name | None -> Fmt.str "sys_%d" n

let numbers t = Hashtbl.fold (fun n _ acc -> n :: acc) t.entries [] |> List.sort compare

(* ------------------------------------------------------------------ *)
(* Handlers                                                            *)
(* ------------------------------------------------------------------ *)

let arg (p : Proc.t) r = Hw.Cpu.get p.regs r
let ret (p : Proc.t) v = Hw.Cpu.set p.regs Isa.Reg.EAX v

(* exit(status) *)
let sys_exit (m : M.t) (p : Proc.t) =
  let ebx = arg p Isa.Reg.EBX in
  if p.sebek_active then M.sebek_trace m p "exit" (string_of_int ebx);
  M.terminate m p (Proc.Exited (ebx land 0xFF))

(* fork() *)
let sys_fork (m : M.t) (p : Proc.t) =
  let child = M.do_fork m p in
  if p.sebek_active then M.sebek_trace m p "fork" (Fmt.str "-> %d" child);
  ret p child

(* read(fd, buf, len) *)
let sys_read (m : M.t) (p : Proc.t) =
  let fd = arg p Isa.Reg.EBX and buf = arg p Isa.Reg.ECX and len = arg p Isa.Reg.EDX in
  match Proc.fd p fd with
  | Some (Read_end pipe) ->
    if not (Pipe.is_empty pipe) then begin
      let n = min len (Pipe.level pipe) in
      M.pipe_to_user m p pipe buf n;
      if p.sebek_active then
        M.sebek_trace m p "read"
          (Fmt.str "fd=%d %S" fd (M.preview (M.copy_from_user m p buf n)));
      ret p n
    end
    else if Pipe.has_writers pipe then M.block m p (Proc.Read_fd fd)
    else ret p 0
  | Some (Write_end _) | None -> ret p (-9)

(* write(fd, buf, len) *)
let sys_write (m : M.t) (p : Proc.t) =
  let fd = arg p Isa.Reg.EBX and buf = arg p Isa.Reg.ECX and len = arg p Isa.Reg.EDX in
  match Proc.fd p fd with
  | Some (Write_end pipe) ->
    if not (Pipe.has_readers pipe) then M.kill m p Proc.Sigpipe
    else if Pipe.space pipe = 0 then M.block m p (Proc.Write_fd fd)
    else begin
      let chunk = min len (Pipe.space pipe) in
      M.pipe_from_user m p pipe buf chunk;
      Hw.Cost.charge m.cost (chunk * m.cost.params.io_byte);
      if p.sebek_active then
        M.sebek_trace m p "write"
          (Fmt.str "fd=%d %S" fd (M.preview (M.copy_from_user m p buf chunk)));
      ret p chunk
    end
  | Some (Read_end _) | None -> ret p (-9)

(* close(fd) *)
let sys_close (_m : M.t) p = ret p (if Proc.close_fd p (arg p Isa.Reg.EBX) then 0 else -9)

(* waitpid(pid) — 0 waits for any child *)
let sys_waitpid (m : M.t) p =
  let target = arg p Isa.Reg.EBX in
  let children =
    List.filter (fun (c : Proc.t) -> target = 0 || c.pid = target) (M.children_of m p)
  in
  match children with
  | [] -> ret p (-10)
  | _ -> (
    match List.find_opt Proc.is_zombie children with
    | Some z ->
      M.reap m z;
      if p.sebek_active then M.sebek_trace m p "waitpid" (Fmt.str "-> %d" z.pid);
      ret p z.pid
    | None -> M.block m p (Proc.Child target))

(* execve(path) — in this model: log the spawn and continue *)
let sys_execve (m : M.t) (p : Proc.t) =
  let path = M.read_cstring m p (arg p Isa.Reg.EBX) ~max:64 in
  Event_log.add m.log (Exec_shell { pid = p.pid; path });
  if p.sebek_active then M.sebek_trace m p "execve" (Fmt.str "%S" path);
  ret p 0

(* time() — cycle counter *)
let sys_time (m : M.t) p = ret p (m.cost.cycles land 0x3FFFFFFF)

let sys_getpid (_m : M.t) (p : Proc.t) = ret p p.pid

(* pipe(fds_ptr) *)
let sys_pipe (m : M.t) (p : Proc.t) =
  let pipe = Pipe.create ~name:(Fmt.str "pipe.%d" p.pid) () in
  M.attach_pipe m pipe;
  let rfd = Proc.install_fd p (Read_end pipe) in
  let wfd = Proc.install_fd p (Write_end pipe) in
  let addr = arg p Isa.Reg.EBX in
  let word v = String.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 0xFF)) in
  M.copy_to_user m p addr (word rfd ^ word wfd);
  ret p 0

(* brk(addr) *)
let sys_brk (_m : M.t) (p : Proc.t) =
  let requested = arg p Isa.Reg.EBX in
  if requested = 0 then ret p p.aspace.brk
  else if requested >= Layout.heap_base && requested < Layout.heap_limit then begin
    p.aspace.brk <- requested;
    ret p requested
  end
  else ret p (-12)

(* sigrecover(handler): register an attack-recovery callback *)
let sys_sigrecover (m : M.t) (p : Proc.t) =
  let ebx = arg p Isa.Reg.EBX in
  p.recovery_handler <- (if ebx = 0 then None else Some ebx);
  if p.sebek_active then M.sebek_trace m p "sigrecover" (Fmt.str "0x%08x" ebx);
  ret p 0

(* mmap(len, prot) *)
let sys_mmap (m : M.t) (p : Proc.t) =
  let len = arg p Isa.Reg.EBX and prot = arg p Isa.Reg.ECX in
  let pages = (len + m.page_size - 1) / m.page_size in
  let base = p.aspace.mmap_cursor in
  if base + ((pages + 1) * m.page_size) > Layout.mmap_limit then ret p (-12)
  else begin
    Aspace.add_region p.aspace
      {
        lo = base / m.page_size;
        hi = (base / m.page_size) + pages;
        kind = Pte.Mmap;
        writable = prot land 2 <> 0;
        execable = prot land 4 <> 0;
        source = Zero;
        share = None;
      };
    p.aspace.mmap_cursor <- base + ((pages + 1) * m.page_size);
    if p.sebek_active then
      M.sebek_trace m p "mmap" (Fmt.str "len=%d prot=%d -> 0x%08x" len prot base);
    ret p base
  end

(* mprotect(addr, len, prot) *)
let sys_mprotect (m : M.t) (p : Proc.t) =
  let addr = arg p Isa.Reg.EBX and len = arg p Isa.Reg.ECX and prot = arg p Isa.Reg.EDX in
  let lo = addr / m.page_size in
  let hi = (addr + len + m.page_size - 1) / m.page_size in
  let writable = prot land 2 <> 0 and execable = prot land 4 <> 0 in
  List.iter
    (fun (r : Aspace.region) ->
      if r.lo < hi && r.hi > lo then begin
        r.writable <- writable;
        r.execable <- execable
      end)
    (Aspace.regions p.aspace);
  for vpn = lo to hi - 1 do
    match Aspace.pte p.aspace vpn with
    | Some pte ->
      (* a frame published in the shared-image registry must be privatized
         before it can legitimately become writable (split pages already
         write to their private data copy) *)
      if writable && pte.split = None then begin
        let frame = Frame_alloc.unshare m.alloc pte.frame in
        if frame <> pte.frame then pte.frame <- frame
      end;
      pte.writable <- writable;
      pte.orig_writable <- writable;
      pte.nx <- m.protection.nx_hardware && not execable;
      Hw.Mmu.invlpg m.mmu vpn
    | None -> ()
  done;
  ret p 0

(* uselib(name): validate and map a dynamic library (paper S4.3) *)
let sys_uselib (m : M.t) (p : Proc.t) =
  let name = M.read_cstring m p (arg p Isa.Reg.EBX) ~max:64 in
  match Hashtbl.find_opt m.libraries name with
  | None -> ret p (-2)
  | Some lib ->
    if
      m.verify_signatures
      && not
           (Signature.verify
              [ name; string_of_int lib.lib_base; lib.code ]
              lib.lib_signature)
    then begin
      Event_log.add m.log (Library_rejected { name });
      ret p (-8)
    end
    else begin
      let lo = lib.lib_base / m.page_size in
      let hi = (lib.lib_base + String.length lib.code + m.page_size - 1) / m.page_size in
      (* idempotent: remapping the same prelinked range is harmless *)
      if Aspace.find_region p.aspace lo = None then
        Aspace.add_region p.aspace
          {
            lo;
            hi;
            kind = Pte.Lib;
            writable = false;
            execable = true;
            source = Image_bytes { base = lib.lib_base; bytes = lib.code };
            share = None;
          };
      if p.sebek_active then
        M.sebek_trace m p "uselib" (Fmt.str "%S -> 0x%08x" name lib.lib_base);
      ret p lib.lib_base
    end

(* sched_yield() *)
let sys_sched_yield (_m : M.t) p = ret p 0

(* nanosleep(cycles) — block until the cycle counter reaches now + EBX.
   Unlike the I/O waits this must not go through [M.block]: a restarted
   sleep would recompute its deadline from the later clock and never
   expire. The return value is staged up front and the process resumes
   *after* the [int 0x80] when the deadline passes. *)
let sys_nanosleep (m : M.t) (p : Proc.t) =
  let d = arg p Isa.Reg.EBX in
  if p.sebek_active then M.sebek_trace m p "nanosleep" (Fmt.str "%d cycles" d);
  ret p 0;
  if d > 0 then begin
    let until_ = m.cost.cycles + d in
    p.state <- Proc.Blocked (Proc.Sleep until_);
    M.register_wait m p (Proc.Sleep until_)
  end

(* ------------------------------------------------------------------ *)
(* The default (Linux-numbered) table                                  *)
(* ------------------------------------------------------------------ *)

let default_entries : (int * string * handler) list =
  [
    (1, "exit", sys_exit);
    (2, "fork", sys_fork);
    (3, "read", sys_read);
    (4, "write", sys_write);
    (6, "close", sys_close);
    (7, "waitpid", sys_waitpid);
    (11, "execve", sys_execve);
    (13, "time", sys_time);
    (20, "getpid", sys_getpid);
    (42, "pipe", sys_pipe);
    (45, "brk", sys_brk);
    (48, "sigrecover", sys_sigrecover);
    (90, "mmap", sys_mmap);
    (125, "mprotect", sys_mprotect);
    (137, "uselib", sys_uselib);
    (158, "sched_yield", sys_sched_yield);
    (162, "nanosleep", sys_nanosleep);
  ]

(* Built eagerly at module initialisation: worker domains reach it
   through [Trap], and a concurrent first force of a [lazy] raises. Frozen,
   since every machine and domain shares it; [default ()] returns it as
   is, with no allocation, on every syscall. *)
let default_table =
  let t = create () in
  List.iter (fun (n, name, h) -> register t n ~name h) default_entries;
  { t with frozen = true }

let default () = default_table

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

let run_handler t m p n =
  (* the two kernel-internal escapes every handler may take: a bad guest
     pointer (EFAULT) and physical-memory exhaustion (OOM-kill) *)
  try
    match Hashtbl.find t.entries n with
    | e -> e.handler m p
    | exception Not_found -> ret p (-38)
  with
  | M.Efault -> ret p (-14)
  | Frame_alloc.Out_of_frames -> M.oom_kill m p

let dispatch t (m : M.t) (p : Proc.t) n =
  match m.probe.syscall with
  | None -> run_handler t m p n
  | Some tracer ->
    let args = (arg p Isa.Reg.EBX, arg p Isa.Reg.ECX, arg p Isa.Reg.EDX) in
    let since = m.cost.cycles in
    run_handler t m p n;
    let outcome =
      match p.state with
      | Proc.Zombie _ -> M.Exited
      | Proc.Blocked _ -> M.Blocked
      | Proc.Runnable -> M.Returned (Hw.Cpu.sign32 (arg p Isa.Reg.EAX))
    in
    tracer
      {
        sys_number = n;
        sys_name = name t n;
        sys_pid = p.pid;
        sys_args = args;
        sys_outcome = outcome;
        sys_cycles = m.cost.cycles - since;
      }
