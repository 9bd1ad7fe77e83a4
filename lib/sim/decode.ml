(** Pre-decoded threaded execution engine: the fast path behind {!Sim.run}.

    [decode] compiles a linked {!Asm.program} once into one flat int array,
    four words per pc: an opcode with the {!Ir.binop} / {!Ir.relop} /
    {!Asm.tag} variant folded into its number, then three pre-resolved
    operands.  Every register operand is validated here, so [execute]
    indexes the register file without bounds checks.  Decode also records,
    for each pc, the length of its chain: the instructions from that pc up
    to and including the first [b] or [j], stopping short of a [halt], a
    call, a return or a poison opcode.

    [execute] compiles each pc's chain, once per run, into closures of
    type [int -> int], one per instruction, specialised on its operands
    and capturing the run's registers, page table and counters.  A closure
    takes a budget [n >= 1] of instructions still allowed: a straight-line
    op does its work, then returns its fall-through pc when [n = 1] or
    tail-calls the next closure with [n - 1]; a [b] or [j] returns its
    target.  The main loop checks fuel and the pc's range, gives the chain
    a budget of [min len (fuel - cycles)], adds that to [cycles] and jumps
    to the pc the chain returns.  Only [halt], the calls, the return and
    the poison opcodes are matched in the loop itself.  [cycles] stays a
    local of the loop that no closure captures: every call and return ends
    a chain, so the hooks see exact counts, and the budget stops a chain
    just short of the pc where fuel runs out, so a fuel trap names it.  A
    trap inside a chain leaves [cycles] ahead of the trap, which nothing
    observes: the run raises.  When per-pc counts are on, each closure
    bumps its pc's count before it executes, so counts after a trap are
    exact too.

    Decode also proves, from the linked code alone, which registers each
    procedure's activation may write ([may_write]), and keeps of each
    published contract only [preserved ∩ may_write], in contract order.
    The checker snapshots and compares just those: a register that no
    instruction reachable in the activation writes cannot differ at
    return, so every verdict, and the first clobbered register a message
    names, are those of the full check.

    The dynamic contract checker is allocation-free: the shadow stack is a
    set of parallel int arrays (return pc, sp at entry, meta index, snapshot
    base) and the per-call register snapshots live in one flat int buffer
    indexed by frame; both grow geometrically and are reused across the
    run.  Memory is paged: each run keeps its own table of 4096-word
    pages, every entry starting at one shared, never-written [zero_page],
    and a store gives its page a fresh array the first time it touches it,
    so a run allocates only the pages it writes.

    The decoded engine is behaviourally identical to {!Sim.run_reference}
    — same outcomes, counters, block profiles and [Runtime_error] messages
    — which the differential test suite enforces on every workload, under
    every allocator, and on random and mutated programs.

    Decode is total on linked programs: the only {!Asm.inst} constructors
    it cannot specialize ([Jal], [Lproc]) are pre-link artifacts, decoded
    to a poison opcode that traps exactly like the reference engine does,
    and only if actually executed.  An instruction naming a register
    outside the file decodes to a second poison opcode, which raises the
    [Invalid_argument] the reference engine's register access raises. *)

module Machine = Chow_machine.Machine
module Asm = Chow_codegen.Asm
module Ir = Chow_ir.Ir
module Event = Chow_obs.Event
module Metrics = Chow_obs.Metrics

exception Runtime_error of string

let error fmt = Format.kasprintf (fun m -> raise (Runtime_error m)) fmt

let tag_index = function
  | Asm.Tdata -> 0
  | Asm.Tscalar -> 1
  | Asm.Tsave -> 2
  | Asm.Tcallsave -> 3
  | Asm.Tstackarg -> 4

type outcome = {
  output : int list;
  cycles : int;
  calls : int;
  data_loads : int;
  data_stores : int;
  scalar_loads : int;  (** scalar + save/restore + stack-arg loads *)
  scalar_stores : int;
  save_loads : int;  (** the save/restore component alone, both kinds *)
  save_stores : int;
  call_save_loads : int;  (** the around-call subset of [save_loads] *)
  call_save_stores : int;
  block_counts : ((string * Ir.label) * int) list;
      (** execution count of each basic block, when run with
          [profile = true]; empty otherwise *)
  proc_cycles : (string * int) list;
      (** cycles attributed to each procedure (in address order, with a
          ["<stub>"] entry for startup code when it executed), when run
          with [profile = true]; empty otherwise *)
}

(* Opcode numbering: dense from 0 so the closure builder's match compiles
   to a jump table.  Variant sub-codes (binop, relop, tag) are folded in as
   offsets: [k_add + binop], [k_beq + relop], [k_lw + tag].  Opcodes [k_li]
   up to the last [k_lw] write register [a]. *)
let k_halt = 0
let k_li = 1 (* a=dst  b=imm *)
let k_move = 2 (* a=dst  b=src *)
let k_neg = 3
let k_not = 4
let k_add = 5 (* +0..9 = add sub mul div rem and or xor shl shr; a,b,c regs *)
let k_addi = 15 (* same, c = immediate *)
let k_cmp = 25 (* +0..5 = eq ne lt le gt ge; a=dst b,c regs *)
let k_cmpi = 31 (* same, c = immediate *)
let k_lw = 37 (* +tag; a=dst b=base c=offset *)
let k_sw = 42 (* +tag; a=src b=base c=offset *)
let k_b = 47 (* +relop; a,b regs, c=target *)
let k_j = 53 (* a=target *)
let k_jal = 54 (* a=target *)
let k_jalr = 55 (* a=reg *)
let k_jr = 56
let k_print = 57 (* a=reg *)
let k_unlinked = 58
let k_badreg = 59

let binop_code = function
  | Ir.Add -> 0
  | Ir.Sub -> 1
  | Ir.Mul -> 2
  | Ir.Div -> 3
  | Ir.Rem -> 4
  | Ir.And -> 5
  | Ir.Or -> 6
  | Ir.Xor -> 7
  | Ir.Shl -> 8
  | Ir.Shr -> 9

let relop_code = function
  | Ir.Eq -> 0
  | Ir.Ne -> 1
  | Ir.Lt -> 2
  | Ir.Le -> 3
  | Ir.Gt -> 4
  | Ir.Ge -> 5

type t = {
  code : int array;  (** four words per pc: opcode, a, b, c *)
  chain_len : int array;
      (** per pc, how many instructions its chain executes; 0 where the
          main loop handles the opcode *)
  prog : Asm.program;  (** retained for data layout and block pcs *)
  entries : int array;  (** procedure entries sorted by address *)
  names : string array;
  meta_of_pc : int array;  (** pc -> index into the meta arrays, or -1 *)
  meta_name : string array;  (** last slot is the "<unknown>" sentinel *)
  meta_checked : int array array;
      (** the preserved registers each activation may write, in contract
          order; -1 stands for a register outside the file *)
  unknown_meta : int;
  has_metas : bool;
}

(** Call-path probes, fired only on the call/return path (never per
    instruction): the executing cycle count and the running save/restore
    totals at the moment of the transfer, so a profiler can segment them
    by activation.  [h_call]'s [site] is the pc of the call instruction;
    both counters snapshots are taken after the transfer instruction
    itself has been counted. *)
type hooks = {
  h_call :
    site:int ->
    target:int ->
    cycles:int ->
    contract_saves:int ->
    contract_restores:int ->
    call_saves:int ->
    call_restores:int ->
    unit;
  h_return :
    cycles:int ->
    contract_saves:int ->
    contract_restores:int ->
    call_saves:int ->
    call_restores:int ->
    unit;
}

let valid r = r >= 0 && r < Machine.nregs

let operands_valid = function
  | Asm.Halt | Asm.Lproc _ | Asm.Jal _ | Asm.J _ | Asm.Jal_pc _ | Asm.Jr ->
      true
  | Asm.Li (r, _) | Asm.Jalr r | Asm.Print r -> valid r
  | Asm.Move (d, s)
  | Asm.Neg (d, s)
  | Asm.Not (d, s)
  | Asm.Binopi (_, d, s, _)
  | Asm.Cmpi (_, d, s, _)
  | Asm.Lw (d, s, _, _)
  | Asm.Sw (d, s, _, _)
  | Asm.B (_, d, s, _) ->
      valid d && valid s
  | Asm.Binop (_, d, a, b) | Asm.Cmp (_, d, a, b) ->
      valid d && valid a && valid b

(* Writes to the hardwired zero register are discarded by redirecting them
   to a dump slot one past the real register file; reads then never need a
   zero check because regs.(0) is never written. *)
let dst r = if r = Machine.zero then Machine.nregs else r

let decode_inst = function
  | Asm.Halt -> (k_halt, 0, 0, 0)
  | Asm.Li (r, imm) -> (k_li, dst r, imm, 0)
  | Asm.Lproc _ | Asm.Jal _ -> (k_unlinked, 0, 0, 0)
  | Asm.Move (d, s) -> (k_move, dst d, s, 0)
  | Asm.Neg (d, s) -> (k_neg, dst d, s, 0)
  | Asm.Not (d, s) -> (k_not, dst d, s, 0)
  | Asm.Binop (op, d, a, b) -> (k_add + binop_code op, dst d, a, b)
  | Asm.Binopi (op, d, a, imm) -> (k_addi + binop_code op, dst d, a, imm)
  | Asm.Cmp (op, d, a, b) -> (k_cmp + relop_code op, dst d, a, b)
  | Asm.Cmpi (op, d, a, imm) -> (k_cmpi + relop_code op, dst d, a, imm)
  | Asm.Lw (d, b, off, tag) -> (k_lw + tag_index tag, dst d, b, off)
  | Asm.Sw (s, b, off, tag) -> (k_sw + tag_index tag, s, b, off)
  | Asm.B (op, a, b, l) -> (k_b + relop_code op, a, b, l)
  | Asm.J l -> (k_j, l, 0, 0)
  | Asm.Jal_pc t -> (k_jal, t, 0, 0)
  | Asm.Jalr r -> (k_jalr, r, 0, 0)
  | Asm.Jr -> (k_jr, 0, 0, 0)
  | Asm.Print r -> (k_print, r, 0, 0)

(** [may_write code meta_entry meta_of_pc] is, for each meta, a bitmask of
    the registers its activation may write, from the call that enters it
    to the return that pops its frame.  Reachability runs from the entry
    over fall-through, [B] and [J] targets (into any procedure's body:
    layout is not trusted) and call continuations.  An instruction writes
    its destination; [jal] and [jalr] write [ra].  A static [jal] to a meta
    entry adds that meta's set, a [jalr] every meta's set (a call that
    lands elsewhere is a wild-call trap), to a fixpoint.  A path ends at
    [halt], at [jr] (the checker pops this frame there, having verified
    the return target), and at an instruction that traps unconditionally:
    an unlinked or bad-register one, or an out-of-range pc. *)
let may_write code meta_entry meta_of_pc =
  let n = Array.length code / 4 in
  let nm = Array.length meta_entry in
  let may = Array.make nm 0 in
  let indirect = Array.make nm false in
  let callees = Array.make nm [||] in
  let seen = Array.make n (-1) in
  (* each pc is pushed at most once per meta, and holds at most one call *)
  let work = Array.make n 0 and found = Array.make n 0 in
  let ra_bit = 1 lsl Machine.ra in
  for m = 0 to nm - 1 do
    let top = ref 0 and nfound = ref 0 and mask = ref 0 in
    let push pc =
      if pc >= 0 && pc < n && seen.(pc) <> m then begin
        seen.(pc) <- m;
        work.(!top) <- pc;
        incr top
      end
    in
    push meta_entry.(m);
    while !top > 0 do
      decr top;
      let pc = work.(!top) in
      let op = code.(4 * pc) and a = code.((4 * pc) + 1) in
      if op >= k_li && op < k_sw && a < Machine.nregs then
        mask := !mask lor (1 lsl a);
      if op = k_halt || op = k_jr || op = k_unlinked || op = k_badreg then ()
      else if op >= k_b && op < k_j then begin
        push (pc + 1);
        push code.((4 * pc) + 3)
      end
      else if op = k_j then push a
      else begin
        if op = k_jalr then begin
          mask := !mask lor ra_bit;
          indirect.(m) <- true
        end
        else if op = k_jal then begin
          mask := !mask lor ra_bit;
          if a >= 0 && a < n && meta_of_pc.(a) >= 0 then begin
            found.(!nfound) <- meta_of_pc.(a);
            incr nfound
          end
        end;
        push (pc + 1)
      end
    done;
    may.(m) <- !mask;
    callees.(m) <- Array.sub found 0 !nfound
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    let any = Array.fold_left ( lor ) 0 may in
    for m = 0 to nm - 1 do
      let v = ref (if indirect.(m) then may.(m) lor any else may.(m)) in
      Array.iter (fun c -> v := !v lor may.(c)) callees.(m);
      if !v <> may.(m) then begin
        may.(m) <- !v;
        changed := true
      end
    done
  done;
  may

(* A chain runs straight-line ops and ends after the first [b] or [j];
   [halt], the calls, the return and the poison opcodes start none and end
   the chain before them, as does the end of the code. *)
let chain_lengths code =
  let n = Array.length code / 4 in
  let len = Array.make n 0 in
  for pc = n - 1 downto 0 do
    let op = code.(4 * pc) in
    len.(pc) <-
      (if op >= k_b && op <= k_j then 1
       else if (op >= k_li && op < k_b) || op = k_print then
         1 + if pc + 1 < n then len.(pc + 1) else 0
       else 0)
  done;
  len

let decode (prog : Asm.program) : t =
  let insts = prog.Asm.code in
  let n = Array.length insts in
  let code = Array.make (4 * n) 0 in
  Array.iteri
    (fun i inst ->
      let op, a, b, c =
        if operands_valid inst then decode_inst inst else (k_badreg, 0, 0, 0)
      in
      code.(4 * i) <- op;
      code.((4 * i) + 1) <- a;
      code.((4 * i) + 2) <- b;
      code.((4 * i) + 3) <- c)
    insts;
  let entries, names = Asm.proc_table prog in
  let meta_of_pc, metas = Asm.meta_table prog in
  let nmetas = Array.length metas in
  let may =
    may_write code (Array.of_list (List.map fst prog.Asm.metas)) meta_of_pc
  in
  let meta_name = Array.make (nmetas + 1) "<unknown>" in
  let meta_checked = Array.make (nmetas + 1) [||] in
  Array.iteri
    (fun i (m : Asm.meta) ->
      meta_name.(i) <- m.Asm.m_name;
      meta_checked.(i) <-
        Array.of_list
          (List.filter_map
             (fun r ->
               if not (valid r) then Some (-1)
               else if may.(i) land (1 lsl r) <> 0 then Some r
               else None)
             m.Asm.m_preserved))
    metas;
  {
    code;
    chain_len = chain_lengths code;
    prog;
    entries;
    names;
    meta_of_pc;
    meta_name;
    meta_checked;
    unknown_meta = nmetas;
    has_metas = nmetas > 0;
  }

(** Which procedure the given pc belongs to: the nearest entry at or below
    it.  Used only on error paths, to give traps a source context. *)
let attribute_pc (entries : int array) (names : string array) pc =
  let n = Array.length entries in
  if n = 0 then "<unknown>"
  else if pc < entries.(0) then "<stub>"
  else begin
    (* binary search for the greatest entry <= pc *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if entries.(mid) <= pc then lo := mid else hi := mid - 1
    done;
    names.(!lo)
  end

let proc_name_of (prog : Asm.program) pc =
  let entries, names = Asm.proc_table prog in
  attribute_pc entries names pc

(** [attribute_cycles prog pc_counts] folds a per-pc execution profile into
    per-procedure cycle totals, in address order.  Cycles spent before the
    first procedure entry (the startup stub) are reported under
    ["<stub>"] when nonzero. *)
let attribute_cycles (prog : Asm.program) (pc_counts : int array) :
    (string * int) list =
  let entries, names = Asm.proc_table prog in
  let n = Array.length entries in
  if n = 0 then []
  else begin
    let ncode = Array.length pc_counts in
    let sum lo hi =
      let acc = ref 0 in
      for pc = lo to min hi (ncode - 1) do
        acc := !acc + pc_counts.(pc)
      done;
      !acc
    in
    let procs =
      List.init n (fun i ->
          let hi = if i + 1 < n then entries.(i + 1) - 1 else ncode - 1 in
          (names.(i), sum entries.(i) hi))
    in
    let stub = sum 0 (entries.(0) - 1) in
    if stub > 0 then ("<stub>", stub) :: procs else procs
  end

(* counter handles shared by both engines: same names, same totals *)
let m_runs = Metrics.counter "sim.runs"
let m_cycles = Metrics.counter "sim.cycles"
let m_calls = Metrics.counter "sim.calls"
let m_data_loads = Metrics.counter "sim.data_loads"
let m_data_stores = Metrics.counter "sim.data_stores"
let m_scalar_loads = Metrics.counter "sim.scalar_loads"
let m_scalar_stores = Metrics.counter "sim.scalar_stores"
let m_save_loads = Metrics.counter "sim.save_loads"
let m_save_stores = Metrics.counter "sim.save_stores"
let m_call_save_loads = Metrics.counter "sim.call_save_loads"
let m_call_save_stores = Metrics.counter "sim.call_save_stores"

(** Publish an outcome's counters into the metrics registry (used by both
    engines after a completed run, so the totals match whichever engine
    executed). *)
let publish_metrics (o : outcome) =
  if Metrics.is_on () then begin
    Metrics.incr m_runs;
    Metrics.add m_cycles o.cycles;
    Metrics.add m_calls o.calls;
    Metrics.add m_data_loads o.data_loads;
    Metrics.add m_data_stores o.data_stores;
    Metrics.add m_scalar_loads o.scalar_loads;
    Metrics.add m_scalar_stores o.scalar_stores;
    Metrics.add m_save_loads o.save_loads;
    Metrics.add m_save_stores o.save_stores;
    Metrics.add m_call_save_loads o.call_save_loads;
    Metrics.add m_call_save_stores o.call_save_stores;
    List.iter
      (fun (name, c) ->
        Metrics.add (Metrics.counter ("sim.proc_cycles/" ^ name)) c)
      o.proc_cycles
  end

let default_fuel = 500_000_000

(* Paged memory: word [addr] is slot [addr land page_mask] of entry
   [addr lsr page_bits] in the run's page table.  Every entry starts at
   [zero_page], shared by all runs and never written, so a load from a page
   no store has touched reads 0; a store to such a page first swaps in a
   fresh zeroed page of the run's own ([own_page]).  A run's table is its
   own, so runs on other threads or domains, and runs nested in a hook,
   never share a page. *)
let page_bits = 12
let page_words = 1 lsl page_bits
let page_mask = page_words - 1
let zero_page = Array.make page_words 0

let own_page pages n =
  let p = Array.make page_words 0 in
  Array.unsafe_set pages n p;
  p

(* unchecked: the caller has bounds-checked [addr] against [mem_words].
   [zero] is [zero_page], passed in so the loop compares against a local
   instead of reloading the global on every store. *)
let[@inline] store zero pages addr v =
  let n = addr lsr page_bits in
  let p = Array.unsafe_get pages n in
  let p = if p == zero then own_page pages n else p in
  Array.unsafe_set p (addr land page_mask) v

(* unchecked register-file access, for the operands [decode] validated *)
let[@inline] get (regs : int array) r = Array.unsafe_get regs r
let[@inline] set (regs : int array) r v = Array.unsafe_set regs r v

(* the tail of a straight-line closure with budget [n]: stop at the
   fall-through pc [nx] when this was the last instruction allowed, else
   run the chain after it *)
let[@inline] step n nx (next : int -> int) = if n = 1 then nx else next (n - 1)

(* the chain entry of a pc the main loop handles; never run *)
let unreachable (_ : int) : int = assert false

let execute ?(fuel = default_fuel) ?(mem_words = 1 lsl 20) ?(check = true)
    ?(profile = false) ?hooks ?pc_buf (t : t) : outcome =
  let prog = t.prog in
  let code = t.code in
  let ncode = Array.length code / 4 in
  (* a caller-supplied buffer makes per-pc counts observable without
     adding fields to the outcome; [profile] alone uses a private one *)
  let count_pcs = profile || pc_buf <> None in
  let pc_counts =
    match pc_buf with
    | Some a ->
        if Array.length a < ncode then
          invalid_arg "Decode.execute: pc_buf shorter than the code";
        Array.fill a 0 (Array.length a) 0;
        a
    | None -> if profile then Array.make ncode 0 else [||]
  in
  (* a negative size fails as the flat image's allocation did *)
  if mem_words < 0 then invalid_arg "Array.make";
  let zero = zero_page in
  let pages = Array.make ((mem_words + page_mask) lsr page_bits) zero in
  List.iter
    (fun (addr, v) ->
      if addr < 0 || addr >= mem_words then invalid_arg "index out of bounds";
      store zero pages addr v)
    prog.Asm.data_init;
  (* one extra slot past the register file: the dump target for writes to
     the zero register (see [dst]) *)
  let regs = Array.make (Machine.nregs + 1) 0 in
  regs.(Machine.sp) <- mem_words;
  let calls = ref 0 in
  let loads = Array.make 5 0 and stores = Array.make 5 0 in
  let output = ref [] in
  (* contract-checker shadow stack: parallel int arrays, no allocation per
     call — frames and register snapshots are written into preallocated
     buffers that grow geometrically and are reused for the whole run *)
  let frame_cap = ref 64 in
  let fr_ret = ref (Array.make !frame_cap 0) in
  let fr_sp = ref (Array.make !frame_cap 0) in
  let fr_meta = ref (Array.make !frame_cap 0) in
  let fr_base = ref (Array.make !frame_cap 0) in
  let depth = ref 0 in
  let snap_cap = ref 256 in
  let snap = ref (Array.make !snap_cap 0) in
  let snap_top = ref 0 in
  let grow_frames () =
    let c = !frame_cap * 2 in
    let g a =
      let n = Array.make c 0 in
      Array.blit !a 0 n 0 !frame_cap;
      a := n
    in
    g fr_ret;
    g fr_sp;
    g fr_meta;
    g fr_base;
    frame_cap := c
  in
  let grow_snap need =
    let c = ref (!snap_cap * 2) in
    while !c < need do
      c := !c * 2
    done;
    let n = Array.make !c 0 in
    Array.blit !snap 0 n 0 !snap_top;
    snap := n;
    snap_cap := !c
  in
  let overflow_limit = prog.Asm.data_size + 64 in
  let where pc = attribute_pc t.entries t.names pc in
  let oob addr pc =
    error "memory access out of bounds: %d (pc %d, in %s)" addr pc (where pc)
  in
  (* tracing is sampled on the call path only (every 256th call), and the
     enabled check is hoisted out of the loop: the hot path is untouched
     when tracing is off *)
  let tr = Event.trace_on () in
  (* [pc] is the call instruction's, [cycles] the count including it *)
  let do_call pc cycles target =
    incr calls;
    if tr && !calls land 255 = 0 then
      Event.counter "sim.traffic"
        [
          ("cycles", cycles);
          ("calls", !calls);
          ("scalar_loads", loads.(1) + loads.(2) + loads.(3) + loads.(4));
          ("scalar_stores", stores.(1) + stores.(2) + stores.(3) + stores.(4));
        ];
    if regs.(Machine.sp) <= overflow_limit then
      error "stack overflow (pc %d, in %s)" pc (where pc);
    if target < 0 || target >= ncode then
      error "call to invalid address %d (pc %d, in %s)" target pc (where pc);
    let return_pc = pc + 1 in
    regs.(Machine.ra) <- return_pc;
    (match hooks with
    | Some h ->
        h.h_call ~site:pc ~target ~cycles ~contract_saves:stores.(2)
          ~contract_restores:loads.(2) ~call_saves:stores.(3)
          ~call_restores:loads.(3)
    | None -> ());
    if check then begin
      let m =
        let m = t.meta_of_pc.(target) in
        if m >= 0 then m
        else if t.has_metas then
          error "call to %d, which is not a procedure entry (pc %d, in %s)"
            target pc (where pc)
        else t.unknown_meta
      in
      if !depth = !frame_cap then grow_frames ();
      let d = !depth in
      !fr_ret.(d) <- return_pc;
      !fr_sp.(d) <- regs.(Machine.sp);
      !fr_meta.(d) <- m;
      !fr_base.(d) <- !snap_top;
      depth := d + 1;
      let regs_m = t.meta_checked.(m) in
      let n = Array.length regs_m in
      if !snap_top + n > !snap_cap then grow_snap (!snap_top + n);
      let sn = !snap and top = !snap_top in
      for k = 0 to n - 1 do
        sn.(top + k) <- regs.(regs_m.(k))
      done;
      snap_top := top + n
    end;
    target
  in
  let do_return pc cycles =
    let target = regs.(Machine.ra) in
    (match hooks with
    | Some h ->
        h.h_return ~cycles ~contract_saves:stores.(2)
          ~contract_restores:loads.(2) ~call_saves:stores.(3)
          ~call_restores:loads.(3)
    | None -> ());
    if check then begin
      if !depth = 0 then
        error "return with empty call stack (pc %d, in %s)" pc (where pc);
      let d = !depth - 1 in
      depth := d;
      let m = !fr_meta.(d) in
      let callee = t.meta_name.(m) in
      if target <> !fr_ret.(d) then
        error "%s: returned to %d, expected %d" callee target !fr_ret.(d);
      if regs.(Machine.sp) <> !fr_sp.(d) then
        error "%s: stack pointer not restored (%d <> %d)" callee
          regs.(Machine.sp) !fr_sp.(d);
      let regs_m = t.meta_checked.(m) in
      let base = !fr_base.(d) in
      let sn = !snap in
      for k = 0 to Array.length regs_m - 1 do
        let r = regs_m.(k) in
        if regs.(r) <> sn.(base + k) then
          error "%s: clobbered preserved register %s (%d <> %d)" callee
            (Machine.name r) regs.(r)
            sn.(base + k)
      done;
      snap_top := base
    end;
    target
  in
  let by_zero what k = error "%s by zero (pc %d, in %s)" what k (where k) in
  (* [op k next] is the closure for the chained instruction at [k], [next]
     the chain from [k + 1]; a trap inside it names [k].  Each arm is the
     opcode's one definition, and indexes registers unchecked: [decode]
     validated every operand. *)
  let op k next : int -> int =
    let base = k lsl 2 in
    let a = code.(base + 1) and b = code.(base + 2) and c = code.(base + 3) in
    let nx = k + 1 in
    match code.(base) with
    | 1 (* li *) ->
        fun n ->
          set regs a b;
          step n nx next
    | 2 (* move *) ->
        fun n ->
          set regs a (get regs b);
          step n nx next
    | 3 (* neg *) ->
        fun n ->
          set regs a (-get regs b);
          step n nx next
    | 4 (* not *) ->
        fun n ->
          set regs a (if get regs b = 0 then 1 else 0);
          step n nx next
    | 5 (* add *) ->
        fun n ->
          set regs a (get regs b + get regs c);
          step n nx next
    | 6 (* sub *) ->
        fun n ->
          set regs a (get regs b - get regs c);
          step n nx next
    | 7 (* mul *) ->
        fun n ->
          set regs a (get regs b * get regs c);
          step n nx next
    | 8 (* div *) ->
        fun n ->
          let d = get regs c in
          if d = 0 then by_zero "division" k
          else begin
            set regs a (get regs b / d);
            step n nx next
          end
    | 9 (* rem *) ->
        fun n ->
          let d = get regs c in
          if d = 0 then by_zero "remainder" k
          else begin
            set regs a (get regs b mod d);
            step n nx next
          end
    | 10 (* and *) ->
        fun n ->
          set regs a (get regs b land get regs c);
          step n nx next
    | 11 (* or *) ->
        fun n ->
          set regs a (get regs b lor get regs c);
          step n nx next
    | 12 (* xor *) ->
        fun n ->
          set regs a (get regs b lxor get regs c);
          step n nx next
    | 13 (* shl *) ->
        fun n ->
          set regs a (get regs b lsl get regs c);
          step n nx next
    | 14 (* shr *) ->
        fun n ->
          set regs a (get regs b asr get regs c);
          step n nx next
    | 15 (* addi *) ->
        fun n ->
          set regs a (get regs b + c);
          step n nx next
    | 16 (* subi *) ->
        fun n ->
          set regs a (get regs b - c);
          step n nx next
    | 17 (* muli *) ->
        fun n ->
          set regs a (get regs b * c);
          step n nx next
    | 18 (* divi *) ->
        if c = 0 then fun _ -> by_zero "division" k
        else fun n ->
          set regs a (get regs b / c);
          step n nx next
    | 19 (* remi *) ->
        if c = 0 then fun _ -> by_zero "remainder" k
        else fun n ->
          set regs a (get regs b mod c);
          step n nx next
    | 20 (* andi *) ->
        fun n ->
          set regs a (get regs b land c);
          step n nx next
    | 21 (* ori *) ->
        fun n ->
          set regs a (get regs b lor c);
          step n nx next
    | 22 (* xori *) ->
        fun n ->
          set regs a (get regs b lxor c);
          step n nx next
    | 23 (* shli *) ->
        fun n ->
          set regs a (get regs b lsl c);
          step n nx next
    | 24 (* shri *) ->
        fun n ->
          set regs a (get regs b asr c);
          step n nx next
    | 25 (* cmp eq *) ->
        fun n ->
          set regs a (if get regs b = get regs c then 1 else 0);
          step n nx next
    | 26 (* cmp ne *) ->
        fun n ->
          set regs a (if get regs b <> get regs c then 1 else 0);
          step n nx next
    | 27 (* cmp lt *) ->
        fun n ->
          set regs a (if get regs b < get regs c then 1 else 0);
          step n nx next
    | 28 (* cmp le *) ->
        fun n ->
          set regs a (if get regs b <= get regs c then 1 else 0);
          step n nx next
    | 29 (* cmp gt *) ->
        fun n ->
          set regs a (if get regs b > get regs c then 1 else 0);
          step n nx next
    | 30 (* cmp ge *) ->
        fun n ->
          set regs a (if get regs b >= get regs c then 1 else 0);
          step n nx next
    | 31 (* cmpi eq *) ->
        fun n ->
          set regs a (if get regs b = c then 1 else 0);
          step n nx next
    | 32 (* cmpi ne *) ->
        fun n ->
          set regs a (if get regs b <> c then 1 else 0);
          step n nx next
    | 33 (* cmpi lt *) ->
        fun n ->
          set regs a (if get regs b < c then 1 else 0);
          step n nx next
    | 34 (* cmpi le *) ->
        fun n ->
          set regs a (if get regs b <= c then 1 else 0);
          step n nx next
    | 35 (* cmpi gt *) ->
        fun n ->
          set regs a (if get regs b > c then 1 else 0);
          step n nx next
    | 36 (* cmpi ge *) ->
        fun n ->
          set regs a (if get regs b >= c then 1 else 0);
          step n nx next
    | (37 | 38 | 39 | 40 | 41) as o (* lw, by tag *) ->
        let tg = o - k_lw in
        fun n ->
          let addr = get regs b + c in
          if addr < 0 || addr >= mem_words then oob addr k
          else begin
            set regs a
              (Array.unsafe_get
                 (Array.unsafe_get pages (addr lsr page_bits))
                 (addr land page_mask));
            Array.unsafe_set loads tg (Array.unsafe_get loads tg + 1);
            step n nx next
          end
    | (42 | 43 | 44 | 45 | 46) as o (* sw, by tag *) ->
        let tg = o - k_sw in
        fun n ->
          let addr = get regs b + c in
          if addr < 0 || addr >= mem_words then oob addr k
          else begin
            store zero pages addr (get regs a);
            Array.unsafe_set stores tg (Array.unsafe_get stores tg + 1);
            step n nx next
          end
    | 47 (* b eq *) -> fun _ -> if get regs a = get regs b then c else nx
    | 48 (* b ne *) -> fun _ -> if get regs a <> get regs b then c else nx
    | 49 (* b lt *) -> fun _ -> if get regs a < get regs b then c else nx
    | 50 (* b le *) -> fun _ -> if get regs a <= get regs b then c else nx
    | 51 (* b gt *) -> fun _ -> if get regs a > get regs b then c else nx
    | 52 (* b ge *) -> fun _ -> if get regs a >= get regs b then c else nx
    | 53 (* j *) -> fun _ -> a
    | 57 (* print *) ->
        fun n ->
          output := get regs a :: !output;
          step n nx next
    | _ -> assert false
  in
  (* built back to front, so each closure captures the chain after it; a
     chain that ends before a loop-handled opcode never calls past its end *)
  let chain_len = t.chain_len in
  let chains = Array.make ncode unreachable in
  for k = ncode - 1 downto 0 do
    if chain_len.(k) > 0 then begin
      let next = if k + 1 < ncode then chains.(k + 1) else unreachable in
      let f = op k next in
      chains.(k) <-
        (if count_pcs then fun n ->
           Array.unsafe_set pc_counts k (Array.unsafe_get pc_counts k + 1);
           f n
         else f)
    end
  done;
  (* [pc] and [cycles] are locals of the loop that no closure captures: a
     chain's budget is added to [cycles] before it runs, and every call,
     return and fuel trap happens between chains, so each sees the exact
     count *)
  let pc = ref prog.Asm.entry and cycles = ref 0 in
  let running = ref true in
  while !running do
    let i = !pc and cy = !cycles in
    if cy >= fuel then
      error "out of fuel after %d cycles (pc %d, in %s)" fuel i (where i);
    if i < 0 || i >= ncode then error "pc out of range: %d" i;
    let len = Array.unsafe_get chain_len i in
    if len > 0 then begin
      let m = if len < fuel - cy then len else fuel - cy in
      cycles := cy + m;
      pc := (Array.unsafe_get chains i) m
    end
    else begin
      if count_pcs then
        Array.unsafe_set pc_counts i (Array.unsafe_get pc_counts i + 1);
      let cy = cy + 1 in
      cycles := cy;
      let a = Array.unsafe_get code ((i lsl 2) + 1) in
      match Array.unsafe_get code (i lsl 2) with
      | 0 (* halt *) -> running := false
      | 54 (* jal *) -> pc := do_call i cy a
      | 55 (* jalr *) -> pc := do_call i cy (get regs a)
      | 56 (* jr *) -> pc := do_return i cy
      | 58 (* unlinked Jal/Lproc *) ->
          error "unlinked instruction at %d (in %s)" i (where i)
      | 59 (* register operand outside the file *) ->
          invalid_arg "index out of bounds"
      | _ -> assert false
    end
  done;
  let block_counts =
    if profile then
      List.map (fun (pc, key) -> (key, pc_counts.(pc))) prog.Asm.block_pcs
    else []
  in
  let proc_cycles =
    if profile then attribute_cycles prog pc_counts else []
  in
  let outcome =
    {
      output = List.rev !output;
      cycles = !cycles;
      calls = !calls;
      data_loads = loads.(0);
      data_stores = stores.(0);
      scalar_loads = loads.(1) + loads.(2) + loads.(3) + loads.(4);
      scalar_stores = stores.(1) + stores.(2) + stores.(3) + stores.(4);
      save_loads = loads.(2) + loads.(3);
      save_stores = stores.(2) + stores.(3);
      call_save_loads = loads.(3);
      call_save_stores = stores.(3);
      block_counts;
      proc_cycles;
    }
  in
  publish_metrics outcome;
  outcome
