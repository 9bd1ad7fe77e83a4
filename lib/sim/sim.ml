(** Instruction-level simulator: the stand-in for the paper's MIPS R2000 and
    its [pixie] tracing facility (§8).

    Executes a linked {!Asm.program} over a flat word-addressed memory and
    counts what pixie counted: executed cycles (one per instruction — pixie
    excludes cache and MMU effects), calls, and loads/stores broken down by
    the {!Asm.tag} assigned at code generation, from which the paper's
    "scalar loads/stores" metric is the [Tscalar] + [Tsave] + [Tcallsave]
    + [Tstackarg] traffic.

    With [check = true] (the default) the simulator also enforces each
    procedure's register-preservation contract: at every return it verifies
    the stack pointer is balanced, the return lands at the call site, and
    every register the callee's convention promises to preserve — the
    callee-saved set for open procedures, everything outside the published
    usage mask for closed ones — still holds its value from entry.  This is
    the dynamic proof that IPRA, shrink-wrapping and the around-call saves
    compose correctly.

    Two engines implement the same semantics.  {!run} is the pre-decoded
    threaded engine ({!Decode}).  {!run_reference} is the original direct
    interpreter over {!Asm.inst} variants, retained as the executable
    specification: it keeps its own full-snapshot contract checker and
    takes from the program's static view ({!Linked}) only the procedure
    names its traps and [proc_cycles] report.  The differential test suite
    holds the two to identical outcomes — outputs, cycle counts, per-tag
    traffic, per-pc execution counts and [Runtime_error] messages — on
    every workload and on random programs. *)

module Machine = Chow_machine.Machine
module Asm = Chow_codegen.Asm
module Linked = Chow_codegen.Linked
module Ir = Chow_ir.Ir

exception Runtime_error = Decode.Runtime_error

let error = Decode.error

type counters = {
  mutable cycles : int;
  mutable calls : int;
  loads : int array;  (** indexed by tag *)
  stores : int array;
}

type outcome = Decode.outcome = {
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

(** Pending activation for the contract checker (reference engine; the
    decoded engine keeps the same state in flat int arrays). *)
type activation = {
  return_pc : int;
  sp_at_entry : int;
  snapshot : (Machine.reg * int) list;
  callee : string;
}

(* [trap] raises the runtime error with the executing-pc context appended,
   so both engines word their arithmetic traps identically *)
let eval_binop ~trap op a b =
  match op with
  | Ir.Add -> a + b
  | Ir.Sub -> a - b
  | Ir.Mul -> a * b
  | Ir.Div -> if b = 0 then trap "division by zero" else a / b
  | Ir.Rem -> if b = 0 then trap "remainder by zero" else a mod b
  | Ir.And -> a land b
  | Ir.Or -> a lor b
  | Ir.Xor -> a lxor b
  | Ir.Shl -> a lsl b
  | Ir.Shr -> a asr b

let eval_relop op a b =
  match op with
  | Ir.Eq -> a = b
  | Ir.Ne -> a <> b
  | Ir.Lt -> a < b
  | Ir.Le -> a <= b
  | Ir.Gt -> a > b
  | Ir.Ge -> a >= b

let default_fuel = Decode.default_fuel

(** The original engine: direct interpretation of {!Asm.inst} variants.
    Kept as the executable specification the decoded engine is
    differentially tested against. *)
let run_reference ?(fuel = default_fuel) ?(mem_words = 1 lsl 20)
    ?(check = true) ?(profile = false) ?pc_buf (prog : Asm.program) : outcome
    =
  Chow_obs.Event.span "sim-reference" @@ fun () ->
  let code = prog.Asm.code in
  let ncode = Array.length code in
  let count_pcs = profile || pc_buf <> None in
  let pc_counts = Decode.pc_counts ~profile pc_buf ncode in
  let mem = Array.make mem_words 0 in
  List.iter (fun (addr, v) -> mem.(addr) <- v) prog.Asm.data_init;
  let regs = Array.make Machine.nregs 0 in
  regs.(Machine.sp) <- mem_words;
  let get r = if r = Machine.zero then 0 else regs.(r) in
  let set r v = if r <> Machine.zero then regs.(r) <- v in
  let counters =
    { cycles = 0; calls = 0; loads = Array.make 5 0; stores = Array.make 5 0 }
  in
  let output = ref [] in
  let metas = Hashtbl.create 16 in
  List.iter (fun (pc, m) -> Hashtbl.replace metas pc m) prog.Asm.metas;
  let stack : activation list ref = ref [] in
  let pc = ref prog.Asm.entry in
  let linked = Linked.make prog in
  let where pc = Linked.proc_name linked pc in
  let mem_access addr =
    if addr < 0 || addr >= mem_words then
      error "memory access out of bounds: %d (pc %d, in %s)" addr !pc
        (where !pc)
  in
  let trap what = error "%s (pc %d, in %s)" what !pc (where !pc) in
  let do_call target_pc return_pc =
    counters.calls <- counters.calls + 1;
    if regs.(Machine.sp) <= prog.Asm.data_size + 64 then
      trap "stack overflow";
    if target_pc < 0 || target_pc >= ncode then
      error "call to invalid address %d (pc %d, in %s)" target_pc !pc
        (where !pc);
    set Machine.ra return_pc;
    if check then begin
      let callee, preserved =
        match Hashtbl.find_opt metas target_pc with
        | Some m -> (m.Asm.m_name, m.Asm.m_preserved)
        | None when Hashtbl.length metas > 0 ->
            (* every legitimate call lands on a procedure entry; an indirect
               jump through a non-procedure value is a wild call *)
            error "call to %d, which is not a procedure entry (pc %d, in %s)"
              target_pc !pc
              (where !pc)
        | None -> ("<unknown>", [])
      in
      stack :=
        {
          return_pc;
          sp_at_entry = regs.(Machine.sp);
          snapshot = List.map (fun r -> (r, get r)) preserved;
          callee;
        }
        :: !stack
    end;
    target_pc
  in
  let do_return () =
    let target = get Machine.ra in
    if check then begin
      match !stack with
      | [] -> trap "return with empty call stack"
      | act :: rest ->
          stack := rest;
          if target <> act.return_pc then
            error "%s: returned to %d, expected %d" act.callee target
              act.return_pc;
          if regs.(Machine.sp) <> act.sp_at_entry then
            error "%s: stack pointer not restored (%d <> %d)" act.callee
              regs.(Machine.sp) act.sp_at_entry;
          List.iter
            (fun (r, v) ->
              if get r <> v then
                error "%s: clobbered preserved register %s (%d <> %d)"
                  act.callee (Machine.name r) (get r) v)
            act.snapshot
    end;
    target
  in
  let running = ref true in
  while !running do
    if counters.cycles >= fuel then
      error "out of fuel after %d cycles (pc %d, in %s)" fuel !pc
        (where !pc);
    if !pc < 0 || !pc >= ncode then error "pc out of range: %d" !pc;
    if count_pcs then pc_counts.(!pc) <- pc_counts.(!pc) + 1;
    counters.cycles <- counters.cycles + 1;
    let next = !pc + 1 in
    (match code.(!pc) with
    | Asm.Li (r, n) -> set r n; pc := next
    | Asm.Lproc _ | Asm.Jal _ ->
        error "unlinked instruction at %d (in %s)" !pc
          (where !pc)
    | Asm.Move (d, s) -> set d (get s); pc := next
    | Asm.Neg (d, s) -> set d (-get s); pc := next
    | Asm.Not (d, s) -> set d (if get s = 0 then 1 else 0); pc := next
    | Asm.Binop (op, d, a, b) ->
        set d (eval_binop ~trap op (get a) (get b));
        pc := next
    | Asm.Binopi (op, d, a, n) ->
        set d (eval_binop ~trap op (get a) n);
        pc := next
    | Asm.Cmp (op, d, a, b) ->
        set d (if eval_relop op (get a) (get b) then 1 else 0);
        pc := next
    | Asm.Cmpi (op, d, a, n) ->
        set d (if eval_relop op (get a) n then 1 else 0);
        pc := next
    | Asm.Lw (d, b, off, tag) ->
        let addr = get b + off in
        mem_access addr;
        set d mem.(addr);
        counters.loads.(Asm.tag_index tag) <-
          counters.loads.(Asm.tag_index tag) + 1;
        pc := next
    | Asm.Sw (s, b, off, tag) ->
        let addr = get b + off in
        mem_access addr;
        mem.(addr) <- get s;
        counters.stores.(Asm.tag_index tag) <-
          counters.stores.(Asm.tag_index tag) + 1;
        pc := next
    | Asm.B (op, a, b, l) ->
        pc := (if eval_relop op (get a) (get b) then l else next)
    | Asm.J l -> pc := l
    | Asm.Jal_pc t -> pc := do_call t next
    | Asm.Jalr r -> pc := do_call (get r) next
    | Asm.Jr -> pc := do_return ()
    | Asm.Print r -> output := get r :: !output; pc := next
    | Asm.Halt -> running := false)
  done;
  let l = counters.loads and s = counters.stores in
  let outcome =
    {
      output = List.rev !output;
      cycles = counters.cycles;
      calls = counters.calls;
      data_loads = l.(0);
      data_stores = s.(0);
      scalar_loads = l.(1) + l.(2) + l.(3) + l.(4);
      scalar_stores = s.(1) + s.(2) + s.(3) + s.(4);
      save_loads = l.(2) + l.(3);
      save_stores = s.(2) + s.(3);
      call_save_loads = l.(3);
      call_save_stores = s.(3);
      proc_cycles =
        (if profile then Linked.proc_cycles linked pc_counts else []);
    }
  in
  Decode.publish_metrics outcome;
  outcome

(** The default engine: pre-decode, then interpret the specialized form.
    The decode cost is linear in code size; [run] pays it on every call,
    so a caller that runs one program many times keeps the {!Decode.t}
    ([Pipeline.run] does, once per compiled program). *)
let run ?fuel ?mem_words ?check ?profile (prog : Asm.program) : outcome =
  let t = Chow_obs.Event.span "decode" (fun () -> Decode.decode prog) in
  Chow_obs.Event.span "sim" (fun () ->
      Decode.execute ?fuel ?mem_words ?check ?profile t)
