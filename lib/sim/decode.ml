(** Pre-decoded threaded execution engine: the fast path behind {!Sim.run}.

    [decode] compiles a linked {!Asm.program} once into one flat int array,
    four words per pc: an opcode with the {!Ir.binop} / {!Ir.relop} /
    {!Asm.tag} variant folded into its number, then three pre-resolved
    operands.  Every register operand is validated here, so [execute]
    indexes the register file without bounds checks.

    [execute] compiles every pc, once per run, into one closure of type
    [int -> int], specialised on its operands and capturing the run's
    registers, page table and counters.  A closure takes a budget
    [n >= 1] of instructions still allowed, this one included.  It
    executes its instruction, then tail-calls the closure of the pc that
    comes next with [n - 1]: the fall-through pc, or the target of a [b],
    [j], call or return.  A static target inside the code is resolved when
    the closures are built; a dynamic one ([jr]'s) is range-checked when
    it is taken.  At [n = 1], at a target outside the code, and at [halt]
    or a poison opcode (which it does not execute), a closure returns the
    pc instead and leaves its unspent budget in the run's one [left] cell.
    So a run is one chain of tail calls, and the main loop is entered only
    at its ends.  The loop checks fuel and the pc's range as the reference
    engine does, executes [halt] and the poison opcodes, and enters any
    other pc with a budget of [fuel - cycles]; on return, [cycles] is
    [fuel - left].

    Cycles stay exact wherever they are observed.  Calls and returns run
    [do_call] and [do_return] (or their fast paths, below) inside their
    closure, where the instructions before them number [fuel - n], so a
    hook sees [fuel - n + 1], the count including the transfer.  The
    budget stops the chain right after the last instruction fuel allows,
    so the fuel trap names the pc control moved to.  A trap inside a
    closure leaves [cycles] stale, which nothing observes: the run
    raises.  When per-pc counts are on, each closure bumps its pc's count
    before it executes, so counts after a trap are exact too.

    Fourteen kinds of adjacent pair share one closure: [li] then [b],
    [addi] then [lw], [addi] or [subi] then [sw], [lw] then [addi],
    [move] then [move], [j], [li] or [lw], [lw] or [addi] then [move],
    [move] or [sw] then a direct [jal], and [addi] or [move] then [jr].
    They are among the most frequent pairs of the workloads at -O3+sw,
    and their instructions do little work of their own (EXPERIMENTS).
    The closure of the first pc executes both and runs on with [n - 2];
    at [n = 1] it executes only the first and stops at the second's pc,
    as its own closure would, so the budget stays exact.  A trap names
    the pc of the instruction that raised it.  The second pc keeps its
    own closure, for control that enters it directly.  Calls and returns
    fuse only where they take their fast paths (the checker on, no hook,
    no tracing), so the hooks' path, tracing and [check = false] are
    unchanged; with per-pc counts on nothing is fused, so every pc bumps
    its own count.  Each opcode keeps one definition: an arm, or an
    inlined effect helper that the single and the fused closures share;
    a call or a return keeps a second, its fast path.

    Decode also builds the program's static view ({!Linked}), which
    proves from the linked code alone which registers each procedure's
    activation may write ([may_write]).  Decode keeps of each published
    contract only [preserved ∩ may_write], in contract order, and the
    checker snapshots and compares just those: a register that no
    instruction reachable in the activation writes cannot differ at
    return, so every verdict, and the first clobbered register a message
    names, are those of the full check.  Trap messages name a pc's
    procedure through the same view, and per-procedure cycles sum the
    per-pc counts by its procedure index.

    The dynamic contract checker is allocation-free: the shadow stack is
    one flat int array of four ints per frame (return pc, sp at entry,
    meta index, snapshot base) and the per-call register snapshots live in
    one flat int buffer indexed by frame; both grow geometrically, are
    reused across the run, and are written unchecked once a capacity test
    has passed.  With no hook or tracing listening, a [jal] whose static
    target is a procedure entry takes that entry's meta index and checked
    registers when its closure is built and pushes its frame without a
    lookup ([call]), and a [jr] compares and pops the top frame inline
    ([return]); each leaves a trap, a stack that must grow and a -1 slot
    to [do_call] or [do_return], so every message is theirs.  Memory is
    paged: each run keeps its own table of 4096-word pages, every entry
    starting at one shared, never-written [zero_page], and a store gives
    its page a fresh array the first time it touches it, so a run
    allocates only the pages it writes.  That first store, like a store
    outside memory, leaves the inlined [sw] helper for a slow path the
    closure tail-calls, so no memory closure needs a stack frame (the
    [-S] output shows none).  Totality on pre-link and bad-register
    instructions, and identity with {!Sim.run_reference}, are as
    decode.mli states. *)

module Machine = Chow_machine.Machine
module Asm = Chow_codegen.Asm
module Linked = Chow_codegen.Linked
module Ir = Chow_ir.Ir
module Event = Chow_obs.Event
module Metrics = Chow_obs.Metrics

exception Runtime_error of string

let error fmt = Format.kasprintf (fun m -> raise (Runtime_error m)) fmt

type outcome = {
  output : int list;
  cycles : int;
  calls : int;
  data_loads : int;
  data_stores : int;
  scalar_loads : int;
  scalar_stores : int;
  save_loads : int;
  save_stores : int;
  call_save_loads : int;
  call_save_stores : int;
  proc_cycles : (string * int) list;
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
  linked : Linked.t;
  meta_checked : int array array;
      (** per meta of [linked], the preserved registers its activation may
          write, in contract order; -1 stands for a register outside the
          file.  One extra last slot, empty, serves calls when the program
          publishes no contract. *)
}

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
  | Asm.Lw (d, b, off, tag) -> (k_lw + Asm.tag_index tag, dst d, b, off)
  | Asm.Sw (s, b, off, tag) -> (k_sw + Asm.tag_index tag, s, b, off)
  | Asm.B (op, a, b, l) -> (k_b + relop_code op, a, b, l)
  | Asm.J l -> (k_j, l, 0, 0)
  | Asm.Jal_pc t -> (k_jal, t, 0, 0)
  | Asm.Jalr r -> (k_jalr, r, 0, 0)
  | Asm.Jr -> (k_jr, 0, 0, 0)
  | Asm.Print r -> (k_print, r, 0, 0)

let decode (prog : Asm.program) : t =
  let insts = prog.Asm.code in
  let n = Array.length insts in
  let code = Array.make (4 * n) 0 in
  Array.iteri
    (fun i inst ->
      let op, a, b, c =
        if Linked.operands_valid inst then decode_inst inst
        else (k_badreg, 0, 0, 0)
      in
      code.(4 * i) <- op;
      code.((4 * i) + 1) <- a;
      code.((4 * i) + 2) <- b;
      code.((4 * i) + 3) <- c)
    insts;
  let linked = Linked.make prog in
  let may = linked.Linked.may_write in
  let checked i (m : Asm.meta) =
    Array.of_list
      (List.filter_map
         (fun r ->
           if r < 0 || r >= Machine.nregs then Some (-1)
           else if may.(i) land (1 lsl r) <> 0 then Some r
           else None)
         m.Asm.m_preserved)
  in
  let meta_checked =
    Array.append (Array.mapi checked linked.Linked.metas) [| [||] |]
  in
  { code; linked; meta_checked }

let linked t = t.linked
let meta_checked t m = t.meta_checked.(m)

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
   The path of [data_init] and of a store's first touch of a page. *)
let store zero pages addr v =
  let n = addr lsr page_bits in
  let p = Array.unsafe_get pages n in
  let p = if p == zero then own_page pages n else p in
  Array.unsafe_set p (addr land page_mask) v

(* unchecked register-file access, for the operands [decode] validated *)
let[@inline] get (regs : int array) r = Array.unsafe_get regs r
let[@inline] set (regs : int array) r v = Array.unsafe_set regs r v

(* The exits of a closure with budget [n] (see [execute]).  [left] is the
   run's one cell for the budget a closure hands back to the loop: what it
   did not spend when it returns a pc instead of running on.

   [stop]: the instruction just executed was the last one allowed; hand
   the fall-through pc [nx] back with nothing left. *)
let[@inline] stop left nx =
  left := 0;
  nx

(* after a straight-line op: run on into [next], the closure of the
   fall-through pc [nx], or stop there when this was the last instruction
   allowed *)
let[@inline] step left n nx (next : int -> int) =
  if n > 1 then next (n - 1) else stop left nx

(* after a transfer to [target]: run on into its closure when it is
   [inside] the code and budget is left; otherwise hand it back to the
   loop, which stops there or traps on it.  At [n = 1] the unspent budget
   is 0 either way. *)
let[@inline] jump left (closures : (int -> int) array) n inside target =
  if inside && n > 1 then (Array.unsafe_get closures target) (n - 1)
  else begin
    left := n - 1;
    target
  end

(* The effects of the opcodes that fused pairs share with their own arms in
   [execute]: each is the opcode's one definition. *)
let[@inline] li regs a imm = set regs a imm
let[@inline] move regs a b = set regs a (get regs b)
let[@inline] addi regs a b imm = set regs a (get regs b + imm)
let[@inline] subi regs a b imm = set regs a (get regs b - imm)

(* A load is true when its address lies inside memory, and false, without
   effect, when it does not; the caller then traps with [oob] in tail
   position, so the closure needs no stack frame.  A store is false,
   without effect, on the same address and on a page no store has touched
   yet ([zero]); the caller then tail-calls [execute]'s [sw_slow], which
   traps or owns the page, so no store closure needs a frame either. *)
let[@inline] lw regs pages loads mem_words tg a b c =
  let addr = get regs b + c in
  addr >= 0 && addr < mem_words
  && begin
       set regs a
         (Array.unsafe_get
            (Array.unsafe_get pages (addr lsr page_bits))
            (addr land page_mask));
       Array.unsafe_set loads tg (Array.unsafe_get loads tg + 1);
       true
     end

let[@inline] sw regs zero pages stores mem_words tg a b c =
  let addr = get regs b + c in
  addr >= 0 && addr < mem_words
  &&
  let p = Array.unsafe_get pages (addr lsr page_bits) in
  p != zero
  && begin
       Array.unsafe_set p (addr land page_mask) (get regs a);
       Array.unsafe_set stores tg (Array.unsafe_get stores tg + 1);
       true
     end

(* A run's call-path state: the call count, the [sp] at or below which a
   call overflows the stack, and the contract checker's shadow stack,
   allocation-free: [frames] holds four ints per frame (return pc, sp at
   entry, meta index, snapshot base), [snap] the register snapshots,
   indexed by frame.  Both grow geometrically and are reused for the
   whole run. *)
type shadow = {
  mutable calls : int;
  limit : int;
  mutable frames : int array;
  mutable depth : int;
  mutable snap : int array;
  mutable snap_top : int;
}

(* A call to a procedure entry whose meta [m] and checked registers
   [checked] (none of them -1) are known: count it, set [ra] to [ret],
   push the frame and snapshot [checked].  False, without effect, when
   [sp] is at the overflow limit or either stack must grow; the caller
   then tail-calls [do_call], which traps or grows the same way. *)
let[@inline] call regs (sh : shadow) ret m (checked : int array) =
  let d = sh.depth and top = sh.snap_top in
  let f = d lsl 2 and nc = Array.length checked in
  get regs Machine.sp > sh.limit
  && f + 4 <= Array.length sh.frames
  && top + nc <= Array.length sh.snap
  && begin
       sh.calls <- sh.calls + 1;
       set regs Machine.ra ret;
       let fr = sh.frames and sn = sh.snap in
       Array.unsafe_set fr f ret;
       Array.unsafe_set fr (f + 1) (get regs Machine.sp);
       Array.unsafe_set fr (f + 2) m;
       Array.unsafe_set fr (f + 3) top;
       sh.depth <- d + 1;
       for k = 0 to nc - 1 do
         Array.unsafe_set sn (top + k) (get regs (Array.unsafe_get checked k))
       done;
       sh.snap_top <- top + nc;
       true
     end

(* A return that passes the checker: a frame to pop, [ra] its return pc,
   [sp] restored and every checked register equal to its snapshot.  Pops
   the frame and is true; false, without effect, when any test fails or a
   checked slot is -1, and the caller then tail-calls [do_return], which
   raises the message. *)
let[@inline] return regs (sh : shadow) (meta_checked : int array array) =
  let d = sh.depth - 1 in
  d >= 0
  &&
  let fr = sh.frames and f = d lsl 2 in
  Array.unsafe_get fr f = get regs Machine.ra
  && Array.unsafe_get fr (f + 1) = get regs Machine.sp
  &&
  let checked = Array.unsafe_get meta_checked (Array.unsafe_get fr (f + 2)) in
  let base = Array.unsafe_get fr (f + 3) and sn = sh.snap in
  let nc = Array.length checked in
  let k = ref 0 in
  while
    !k < nc
    &&
    let r = Array.unsafe_get checked !k in
    r >= 0 && get regs r = Array.unsafe_get sn (base + !k)
  do
    incr k
  done;
  !k = nc
  && begin
       sh.depth <- d;
       sh.snap_top <- base;
       true
     end

(* the six relations of [b], on registers [a] and [b] *)
let[@inline] b_eq regs a b = get regs a = get regs b
let[@inline] b_ne regs a b = get regs a <> get regs b
let[@inline] b_lt regs a b = get regs a < get regs b
let[@inline] b_le regs a b = get regs a <= get regs b
let[@inline] b_gt regs a b = get regs a > get regs b
let[@inline] b_ge regs a b = get regs a >= get regs b

(* a caller-supplied buffer makes per-pc counts observable without
   adding fields to the outcome; [profile] alone uses a private one *)
let pc_counts ~profile pc_buf ncode =
  match pc_buf with
  | Some a ->
      if Array.length a < ncode then
        invalid_arg "pc_buf shorter than the code";
      Array.fill a 0 (Array.length a) 0;
      a
  | None -> if profile then Array.make ncode 0 else [||]

let execute ?(fuel = default_fuel) ?(mem_words = 1 lsl 20) ?(check = true)
    ?(profile = false) ?hooks ?pc_buf (t : t) : outcome =
  let v = t.linked in
  let prog = v.Linked.prog and meta_of_pc = v.Linked.meta_of_pc in
  (* meta index [nmetas] is the empty contract of calls in a program that
     publishes none *)
  let nmetas = Array.length v.Linked.metas in
  let meta_name m =
    if m < nmetas then v.Linked.metas.(m).Asm.m_name else "<unknown>"
  in
  let code = t.code in
  let ncode = Array.length code / 4 in
  let count_pcs = profile || pc_buf <> None in
  let pc_counts = pc_counts ~profile pc_buf ncode in
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
  let loads = Array.make 5 0 and stores = Array.make 5 0 in
  let output = ref [] in
  (* the call-path state (see [shadow]); frame slots and snapshot writes
     go unchecked once the capacity test has passed *)
  let sh =
    {
      calls = 0;
      limit = prog.Asm.data_size + 64;
      frames = Array.make (4 * 64) 0;
      depth = 0;
      snap = Array.make 256 0;
      snap_top = 0;
    }
  in
  let grow a need =
    let c = ref (2 * Array.length a) in
    while !c < need do
      c := !c * 2
    done;
    let n = Array.make !c 0 in
    Array.blit a 0 n 0 (Array.length a);
    n
  in
  (* push the frame of an activation of meta [m] that returns to [ret];
     [checked] is [t.meta_checked.(m)], whose registers it snapshots *)
  let push_frame ret m checked =
    let d = sh.depth in
    let f = d lsl 2 in
    if f + 4 > Array.length sh.frames then sh.frames <- grow sh.frames (f + 4);
    let fr = sh.frames in
    Array.unsafe_set fr f ret;
    Array.unsafe_set fr (f + 1) (get regs Machine.sp);
    Array.unsafe_set fr (f + 2) m;
    Array.unsafe_set fr (f + 3) sh.snap_top;
    sh.depth <- d + 1;
    let n = Array.length checked in
    if n > 0 then begin
      let top = sh.snap_top in
      if top + n > Array.length sh.snap then sh.snap <- grow sh.snap (top + n);
      let sn = sh.snap in
      for k = 0 to n - 1 do
        (* checked: -1 stands for a register outside the file *)
        Array.unsafe_set sn (top + k) regs.(Array.unsafe_get checked k)
      done;
      sh.snap_top <- top + n
    end
  in
  let where pc = Linked.proc_name v pc in
  (* the trap of a [lw] or [sw] at [pc] whose address, register [b] plus
     [c], lies outside memory *)
  let oob b c pc =
    let addr = get regs b + c in
    error "memory access out of bounds: %d (pc %d, in %s)" addr pc (where pc)
  in
  let stack_overflow pc = error "stack overflow (pc %d, in %s)" pc (where pc) in
  (* tracing is sampled on the call path only (every 256th call), and the
     enabled check is hoisted out of the run: the hot path is untouched
     when tracing is off *)
  let tr = Event.trace_on () in
  (* [pc] is the call instruction's, [cycles] the count including it *)
  let do_call pc cycles target =
    sh.calls <- sh.calls + 1;
    if tr && sh.calls land 255 = 0 then
      Event.counter "sim.traffic"
        [
          ("cycles", cycles);
          ("calls", sh.calls);
          ("scalar_loads", loads.(1) + loads.(2) + loads.(3) + loads.(4));
          ("scalar_stores", stores.(1) + stores.(2) + stores.(3) + stores.(4));
        ];
    if regs.(Machine.sp) <= sh.limit then stack_overflow pc;
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
        let m = meta_of_pc.(target) in
        if m >= 0 then m
        else if nmetas > 0 then
          error "call to %d, which is not a procedure entry (pc %d, in %s)"
            target pc (where pc)
        else nmetas
      in
      push_frame return_pc m t.meta_checked.(m)
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
      let d = sh.depth - 1 in
      if d < 0 then
        error "return with empty call stack (pc %d, in %s)" pc (where pc);
      sh.depth <- d;
      let fr = sh.frames and f = d lsl 2 in
      let ret = Array.unsafe_get fr f and sp = Array.unsafe_get fr (f + 1) in
      let m = Array.unsafe_get fr (f + 2) in
      let base = Array.unsafe_get fr (f + 3) in
      if target <> ret then
        error "%s: returned to %d, expected %d" (meta_name m) target ret;
      if regs.(Machine.sp) <> sp then
        error "%s: stack pointer not restored (%d <> %d)" (meta_name m)
          regs.(Machine.sp) sp;
      let checked = t.meta_checked.(m) in
      let sn = sh.snap in
      for k = 0 to Array.length checked - 1 do
        let r = checked.(k) in
        if regs.(r) <> sn.(base + k) then
          error "%s: clobbered preserved register %s (%d <> %d)"
            (meta_name m) (Machine.name r) regs.(r) sn.(base + k)
      done;
      sh.snap_top <- base
    end;
    target
  in
  (* With the checker on and no hook or tracing listening, calls and
     returns take fast paths: the [call] helper for a [jal] to a procedure
     entry (its meta index and checked registers taken when its closure
     is built: no lookup, no range, hook or tracing test), and the
     [return] helper for every [jr].  Each falls back to [do_call] or
     [do_return] (through [call_slow] and [return_slow]) for a trap, a
     stack that must grow or a -1 slot, so every message is theirs.  Only
     under this condition are calls and returns fused.  The direct [jal]
     was worth 7-8% of [simulate] time when it came in (EXPERIMENTS). *)
  let direct_calls = check && hooks = None && not tr in
  (* [direct target] is the meta index of a [jal]'s static [target] when
     the [call] helper serves it, else -1 *)
  let direct target =
    if direct_calls && target >= 0 && target < ncode then
      let m = meta_of_pc.(target) in
      if m >= 0 && Array.for_all (fun r -> r >= 0) t.meta_checked.(m) then m
      else -1
    else -1
  in
  let by_zero what k = error "%s by zero (pc %d, in %s)" what k (where k) in
  (* Every pc has one closure of type [int -> int].  Its argument is a
     budget [n >= 1], the instructions it may still execute, this one
     included.  It executes its instruction, then runs on into the closure
     of the next pc with [n - 1], or, when [n = 1], sets [left] to 0 and
     returns that pc.  A transfer to a target outside the code instead
     returns the target, with the unspent budget in [left]; so do
     [halt] and the poison opcodes, without executing (the loop executes
     them).  Instructions before the one at budget [n] number
     [fuel - n], so a call or return passes [fuel - n + 1] to its hook,
     the count including itself. *)
  let left = ref 0 in
  let closures = Array.make ncode (fun (_ : int) -> 0) in
  let exit_at pc n =
    left := n;
    pc
  in
  let in_code pc = pc >= 0 && pc < ncode in
  (* The slow paths the fast ones tail-call, so that no closure keeps a
     stack frame for them: the general call from [k] to [target] and the
     general return at [k], each at budget [n], and the store at [k] that
     traps on an address outside memory or owns a never-written page
     first, then runs on into [next], the closure of [k + 1]. *)
  let call_slow k target n =
    jump left closures n true (do_call k (fuel - n + 1) target)
  in
  let return_slow k n =
    let target = do_return k (fuel - n + 1) in
    jump left closures n (in_code target) target
  in
  let sw_slow k tg a b c n next =
    let addr = get regs b + c in
    if addr < 0 || addr >= mem_words then oob b c k
    else begin
      store zero pages addr (get regs a);
      Array.unsafe_set stores tg (Array.unsafe_get stores tg + 1);
      step left n (k + 1) next
    end
  in
  (* [op k next] is the closure for the instruction at [k], [next] that of
     [k + 1]; a trap inside it names [k].  Each arm, or the effect helper
     it shares with [pair], is the opcode's one definition, and indexes
     registers unchecked: [decode] validated every operand.  A call or
     return has a second, its fast helper (see [direct_calls]), which
     leaves every case it does not serve to the first. *)
  let op k next : int -> int =
    let base = k lsl 2 in
    let o = code.(base) in
    let a = code.(base + 1) and b = code.(base + 2) and c = code.(base + 3) in
    let nx = k + 1 in
    match o with
    | 0 (* halt *) | 58 (* unlinked Jal/Lproc *) | 59 (* bad register *) ->
        exit_at k
    | 1 (* li *) ->
        fun n ->
          li regs a b;
          step left n nx next
    | 2 (* move *) ->
        fun n ->
          move regs a b;
          step left n nx next
    | 3 (* neg *) ->
        fun n ->
          set regs a (-get regs b);
          step left n nx next
    | 4 (* not *) ->
        fun n ->
          set regs a (if get regs b = 0 then 1 else 0);
          step left n nx next
    | 5 (* add *) ->
        fun n ->
          set regs a (get regs b + get regs c);
          step left n nx next
    | 6 (* sub *) ->
        fun n ->
          set regs a (get regs b - get regs c);
          step left n nx next
    | 7 (* mul *) ->
        fun n ->
          set regs a (get regs b * get regs c);
          step left n nx next
    | 8 (* div *) ->
        fun n ->
          let d = get regs c in
          if d = 0 then by_zero "division" k
          else begin
            set regs a (get regs b / d);
            step left n nx next
          end
    | 9 (* rem *) ->
        fun n ->
          let d = get regs c in
          if d = 0 then by_zero "remainder" k
          else begin
            set regs a (get regs b mod d);
            step left n nx next
          end
    | 10 (* and *) ->
        fun n ->
          set regs a (get regs b land get regs c);
          step left n nx next
    | 11 (* or *) ->
        fun n ->
          set regs a (get regs b lor get regs c);
          step left n nx next
    | 12 (* xor *) ->
        fun n ->
          set regs a (get regs b lxor get regs c);
          step left n nx next
    | 13 (* shl *) ->
        fun n ->
          set regs a (get regs b lsl get regs c);
          step left n nx next
    | 14 (* shr *) ->
        fun n ->
          set regs a (get regs b asr get regs c);
          step left n nx next
    | 15 (* addi *) ->
        fun n ->
          addi regs a b c;
          step left n nx next
    | 16 (* subi *) ->
        fun n ->
          subi regs a b c;
          step left n nx next
    | 17 (* muli *) ->
        fun n ->
          set regs a (get regs b * c);
          step left n nx next
    | 18 (* divi *) ->
        if c = 0 then fun _ -> by_zero "division" k
        else fun n ->
          set regs a (get regs b / c);
          step left n nx next
    | 19 (* remi *) ->
        if c = 0 then fun _ -> by_zero "remainder" k
        else fun n ->
          set regs a (get regs b mod c);
          step left n nx next
    | 20 (* andi *) ->
        fun n ->
          set regs a (get regs b land c);
          step left n nx next
    | 21 (* ori *) ->
        fun n ->
          set regs a (get regs b lor c);
          step left n nx next
    | 22 (* xori *) ->
        fun n ->
          set regs a (get regs b lxor c);
          step left n nx next
    | 23 (* shli *) ->
        fun n ->
          set regs a (get regs b lsl c);
          step left n nx next
    | 24 (* shri *) ->
        fun n ->
          set regs a (get regs b asr c);
          step left n nx next
    | 25 (* cmp eq *) ->
        fun n ->
          set regs a (if get regs b = get regs c then 1 else 0);
          step left n nx next
    | 26 (* cmp ne *) ->
        fun n ->
          set regs a (if get regs b <> get regs c then 1 else 0);
          step left n nx next
    | 27 (* cmp lt *) ->
        fun n ->
          set regs a (if get regs b < get regs c then 1 else 0);
          step left n nx next
    | 28 (* cmp le *) ->
        fun n ->
          set regs a (if get regs b <= get regs c then 1 else 0);
          step left n nx next
    | 29 (* cmp gt *) ->
        fun n ->
          set regs a (if get regs b > get regs c then 1 else 0);
          step left n nx next
    | 30 (* cmp ge *) ->
        fun n ->
          set regs a (if get regs b >= get regs c then 1 else 0);
          step left n nx next
    | 31 (* cmpi eq *) ->
        fun n ->
          set regs a (if get regs b = c then 1 else 0);
          step left n nx next
    | 32 (* cmpi ne *) ->
        fun n ->
          set regs a (if get regs b <> c then 1 else 0);
          step left n nx next
    | 33 (* cmpi lt *) ->
        fun n ->
          set regs a (if get regs b < c then 1 else 0);
          step left n nx next
    | 34 (* cmpi le *) ->
        fun n ->
          set regs a (if get regs b <= c then 1 else 0);
          step left n nx next
    | 35 (* cmpi gt *) ->
        fun n ->
          set regs a (if get regs b > c then 1 else 0);
          step left n nx next
    | 36 (* cmpi ge *) ->
        fun n ->
          set regs a (if get regs b >= c then 1 else 0);
          step left n nx next
    | (37 | 38 | 39 | 40 | 41) as o (* lw, by tag *) ->
        let tg = o - k_lw in
        fun n ->
          if lw regs pages loads mem_words tg a b c then step left n nx next
          else oob b c k
    | (42 | 43 | 44 | 45 | 46) as o (* sw, by tag *) ->
        let tg = o - k_sw in
        fun n ->
          if sw regs zero pages stores mem_words tg a b c then
            step left n nx next
          else sw_slow k tg a b c n next
    | 47 (* b eq *) ->
        let inside = in_code c in
        fun n ->
          if b_eq regs a b then jump left closures n inside c
          else step left n nx next
    | 48 (* b ne *) ->
        let inside = in_code c in
        fun n ->
          if b_ne regs a b then jump left closures n inside c
          else step left n nx next
    | 49 (* b lt *) ->
        let inside = in_code c in
        fun n ->
          if b_lt regs a b then jump left closures n inside c
          else step left n nx next
    | 50 (* b le *) ->
        let inside = in_code c in
        fun n ->
          if b_le regs a b then jump left closures n inside c
          else step left n nx next
    | 51 (* b gt *) ->
        let inside = in_code c in
        fun n ->
          if b_gt regs a b then jump left closures n inside c
          else step left n nx next
    | 52 (* b ge *) ->
        let inside = in_code c in
        fun n ->
          if b_ge regs a b then jump left closures n inside c
          else step left n nx next
    | 53 (* j *) ->
        let inside = in_code a in
        fun n -> jump left closures n inside a
    | 54 (* jal *) when direct a >= 0 ->
        let m = direct a in
        let checked = t.meta_checked.(m) in
        fun n ->
          if call regs sh nx m checked then
            jump left closures n true a
          else call_slow k a n
    (* [do_call] traps on a target outside the code *)
    | 54 (* jal *) -> fun n -> call_slow k a n
    | 55 (* jalr *) -> fun n -> call_slow k (get regs a) n
    | 56 (* jr *) when direct_calls ->
        fun n ->
          if return regs sh t.meta_checked then
            let target = get regs Machine.ra in
            jump left closures n (target >= 0 && target < ncode) target
          else return_slow k n
    | 56 (* jr *) -> fun n -> return_slow k n
    | 57 (* print *) ->
        fun n ->
          output := get regs a :: !output;
          step left n nx next
    | _ -> assert false
  in
  (* [pair k next next2] is one closure for the instructions at [k] and
     [k + 1] when their opcodes form one of the pairs below, else [None];
     [next] is the closure of [k + 1], [next2] that of [k + 2].  It
     executes both and runs on from the second with [n - 1], so the pc
     after the pair is entered with [n - 2]; at [n = 1] it executes only
     the first and stops at [k + 1], as [k]'s own closure would.  A trap
     names the pc of the instruction that raised it, and a slow path
     entered from the first instruction runs on into [next].  A pair that
     ends in a call or a return is fused only under [direct_calls]. *)
  let pair k next next2 : (int -> int) option =
    let base = k lsl 2 in
    let a = code.(base + 1) and b = code.(base + 2) and c = code.(base + 3) in
    let a2 = code.(base + 5) and b2 = code.(base + 6) in
    let c2 = code.(base + 7) in
    let nx = k + 1 and nx2 = k + 2 in
    match (code.(base), code.(base + 4)) with
    | 1, 47 (* li; b eq *) ->
        let inside = in_code c2 in
        Some
          (fun n ->
            li regs a b;
            if n <= 1 then stop left nx
            else if b_eq regs a2 b2 then jump left closures (n - 1) inside c2
            else step left (n - 1) nx2 next2)
    | 1, 48 (* li; b ne *) ->
        let inside = in_code c2 in
        Some
          (fun n ->
            li regs a b;
            if n <= 1 then stop left nx
            else if b_ne regs a2 b2 then jump left closures (n - 1) inside c2
            else step left (n - 1) nx2 next2)
    | 1, 49 (* li; b lt *) ->
        let inside = in_code c2 in
        Some
          (fun n ->
            li regs a b;
            if n <= 1 then stop left nx
            else if b_lt regs a2 b2 then jump left closures (n - 1) inside c2
            else step left (n - 1) nx2 next2)
    | 1, 50 (* li; b le *) ->
        let inside = in_code c2 in
        Some
          (fun n ->
            li regs a b;
            if n <= 1 then stop left nx
            else if b_le regs a2 b2 then jump left closures (n - 1) inside c2
            else step left (n - 1) nx2 next2)
    | 1, 51 (* li; b gt *) ->
        let inside = in_code c2 in
        Some
          (fun n ->
            li regs a b;
            if n <= 1 then stop left nx
            else if b_gt regs a2 b2 then jump left closures (n - 1) inside c2
            else step left (n - 1) nx2 next2)
    | 1, 52 (* li; b ge *) ->
        let inside = in_code c2 in
        Some
          (fun n ->
            li regs a b;
            if n <= 1 then stop left nx
            else if b_ge regs a2 b2 then jump left closures (n - 1) inside c2
            else step left (n - 1) nx2 next2)
    | 15, ((37 | 38 | 39 | 40 | 41) as o2) (* addi; lw *) ->
        let tg = o2 - k_lw in
        Some
          (fun n ->
            addi regs a b c;
            if n <= 1 then stop left nx
            else if lw regs pages loads mem_words tg a2 b2 c2 then
              step left (n - 1) nx2 next2
            else oob b2 c2 nx)
    | 15, ((42 | 43 | 44 | 45 | 46) as o2) (* addi; sw *) ->
        let tg = o2 - k_sw in
        Some
          (fun n ->
            addi regs a b c;
            if n <= 1 then stop left nx
            else if sw regs zero pages stores mem_words tg a2 b2 c2 then
              step left (n - 1) nx2 next2
            else sw_slow nx tg a2 b2 c2 (n - 1) next2)
    | 16, ((42 | 43 | 44 | 45 | 46) as o2) (* subi; sw *) ->
        let tg = o2 - k_sw in
        Some
          (fun n ->
            subi regs a b c;
            if n <= 1 then stop left nx
            else if sw regs zero pages stores mem_words tg a2 b2 c2 then
              step left (n - 1) nx2 next2
            else sw_slow nx tg a2 b2 c2 (n - 1) next2)
    | ((37 | 38 | 39 | 40 | 41) as o), 15 (* lw; addi *) ->
        let tg = o - k_lw in
        Some
          (fun n ->
            if lw regs pages loads mem_words tg a b c then
              if n <= 1 then stop left nx
              else begin
                addi regs a2 b2 c2;
                step left (n - 1) nx2 next2
              end
            else oob b c k)
    | 2, 53 (* move; j *) ->
        let inside = in_code a2 in
        Some
          (fun n ->
            move regs a b;
            if n <= 1 then stop left nx
            else jump left closures (n - 1) inside a2)
    | 2, 2 (* move; move *) ->
        Some
          (fun n ->
            move regs a b;
            if n <= 1 then stop left nx
            else begin
              move regs a2 b2;
              step left (n - 1) nx2 next2
            end)
    | ((37 | 38 | 39 | 40 | 41) as o), 2 (* lw; move *) ->
        let tg = o - k_lw in
        Some
          (fun n ->
            if lw regs pages loads mem_words tg a b c then
              if n <= 1 then stop left nx
              else begin
                move regs a2 b2;
                step left (n - 1) nx2 next2
              end
            else oob b c k)
    | 2, ((37 | 38 | 39 | 40 | 41) as o2) (* move; lw *) ->
        let tg = o2 - k_lw in
        Some
          (fun n ->
            move regs a b;
            if n <= 1 then stop left nx
            else if lw regs pages loads mem_words tg a2 b2 c2 then
              step left (n - 1) nx2 next2
            else oob b2 c2 nx)
    | 2, 1 (* move; li *) ->
        Some
          (fun n ->
            move regs a b;
            if n <= 1 then stop left nx
            else begin
              li regs a2 b2;
              step left (n - 1) nx2 next2
            end)
    | 15, 2 (* addi; move *) ->
        Some
          (fun n ->
            addi regs a b c;
            if n <= 1 then stop left nx
            else begin
              move regs a2 b2;
              step left (n - 1) nx2 next2
            end)
    | 2, 54 (* move; jal *) when direct a2 >= 0 ->
        let m = direct a2 in
        let checked = t.meta_checked.(m) in
        Some
          (fun n ->
            move regs a b;
            if n <= 1 then stop left nx
            else if call regs sh nx2 m checked then
              jump left closures (n - 1) true a2
            else call_slow nx a2 (n - 1))
    | (42 | 43 | 44 | 45 | 46) as o, 54 (* sw; jal *) when direct a2 >= 0 ->
        let tg = o - k_sw in
        let m = direct a2 in
        let checked = t.meta_checked.(m) in
        Some
          (fun n ->
            if sw regs zero pages stores mem_words tg a b c then
              if n <= 1 then stop left nx
              else if call regs sh nx2 m checked then
                jump left closures (n - 1) true a2
              else call_slow nx a2 (n - 1)
            else sw_slow k tg a b c n next)
    | 15, 56 (* addi; jr *) when direct_calls ->
        Some
          (fun n ->
            addi regs a b c;
            if n <= 1 then stop left nx
            else if return regs sh t.meta_checked then
              let target = get regs Machine.ra in
              jump left closures (n - 1) (target >= 0 && target < ncode) target
            else return_slow nx (n - 1))
    | 2, 56 (* move; jr *) when direct_calls ->
        Some
          (fun n ->
            move regs a b;
            if n <= 1 then stop left nx
            else if return regs sh t.meta_checked then
              let target = get regs Machine.ra in
              jump left closures (n - 1) (target >= 0 && target < ncode) target
            else return_slow nx (n - 1))
    | _ -> None
  in
  (* built back to front, so each closure captures the next one; the last
     pc's falls off the end of the code into the loop's range trap.  With
     per-pc counts on, no pair is fused, and each closure that executes its
     instruction is wrapped by one that bumps its pc's count first, so
     counts after a trap are exact; the loop counts [halt] and the poison
     opcodes itself. *)
  let next_of k = if k + 1 < ncode then closures.(k + 1) else exit_at ncode in
  for k = ncode - 1 downto 0 do
    let fused =
      if count_pcs || k + 1 >= ncode then None
      else pair k closures.(k + 1) (next_of (k + 1))
    in
    closures.(k) <-
      (match fused with
      | Some f -> f
      | None ->
          let f = op k (next_of k) in
          let o = code.(k lsl 2) in
          if count_pcs && o <> k_halt && o < k_unlinked then fun n ->
            Array.unsafe_set pc_counts k (Array.unsafe_get pc_counts k + 1);
            f n
          else f)
  done;
  (* The loop runs the fuel and range traps, in the reference's order, and
     executes [halt] and the poison opcodes.  Any other pc is entered with
     the whole remaining fuel as its budget, and the run goes on in the
     closures until it halts, leaves the code or the budget is spent;
     [left] then says how much of it was not. *)
  let pc = ref prog.Asm.entry and cycles = ref 0 in
  let running = ref true in
  while !running do
    let i = !pc and cy = !cycles in
    if cy >= fuel then
      error "out of fuel after %d cycles (pc %d, in %s)" fuel i (where i);
    if i < 0 || i >= ncode then error "pc out of range: %d" i;
    match Array.unsafe_get code (i lsl 2) with
    | (0 | 58 | 59) as o ->
        if count_pcs then
          Array.unsafe_set pc_counts i (Array.unsafe_get pc_counts i + 1);
        cycles := cy + 1;
        if o = k_halt then running := false
        else if o = k_unlinked then
          error "unlinked instruction at %d (in %s)" i (where i)
        else (* a register operand outside the file *)
          invalid_arg "index out of bounds"
    | _ ->
        pc := (Array.unsafe_get closures i) (fuel - cy);
        cycles := fuel - !left
  done;
  let proc_cycles =
    if profile then Linked.proc_cycles v pc_counts else []
  in
  let outcome =
    {
      output = List.rev !output;
      cycles = !cycles;
      calls = sh.calls;
      data_loads = loads.(0);
      data_stores = stores.(0);
      scalar_loads = loads.(1) + loads.(2) + loads.(3) + loads.(4);
      scalar_stores = stores.(1) + stores.(2) + stores.(3) + stores.(4);
      save_loads = loads.(2) + loads.(3);
      save_stores = stores.(2) + stores.(3);
      call_save_loads = loads.(3);
      call_save_stores = stores.(3);
      proc_cycles;
    }
  in
  publish_metrics outcome;
  outcome
