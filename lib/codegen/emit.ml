(** Instruction selection and emission: allocated IR to target assembly.

    Virtual registers mapped to physical registers are used directly;
    memory-resident ones are staged through the reserved scratch registers
    [$x0]/[$x1] around each use, with the resulting traffic tagged
    [Tscalar].  Contract saves/restores are emitted at the block
    entries/exits chosen by shrink-wrapping (tag [Tsave]); around-call
    saves/restores go to per-register scratch slots at the call sites that
    need them (tag [Tcallsave], so the penalty profiler can attribute them
    to the forcing call site).  [$x2] carries indirect-call targets. *)

module Ir = Chow_ir.Ir
module Machine = Chow_machine.Machine
open Chow_core.Alloc_types

type ctx = {
  res : result;
  frame : Frame.t;
  layout : (string, int) Hashtbl.t;
  mutable rev_items : Asm.item list;
  save_map : Machine.reg list array;  (** contract saves, per label *)
  restore_map : Machine.reg list array;  (** contract restores, per label *)
}

let emit ctx i = ctx.rev_items <- Asm.Inst i :: ctx.rev_items
let emit_label ctx l = ctx.rev_items <- Asm.Label l :: ctx.rev_items

let loc ctx v = ctx.res.r_assignment.(v)
let home ctx v = Frame.home ctx.frame v
let base ctx g =
  match Hashtbl.find_opt ctx.layout g with
  | Some a -> a
  | None -> invalid_arg ("Emit: unknown global " ^ g)

(** Bring an operand into a register; [scratch] is used when needed. *)
let fetch ctx o scratch =
  match o with
  | Ir.Imm n ->
      emit ctx (Asm.Li (scratch, n));
      scratch
  | Ir.Reg v -> (
      match loc ctx v with
      | Lreg r -> r
      | Lstack ->
          emit ctx (Asm.Lw (scratch, Machine.sp, home ctx v, Asm.Tscalar));
          scratch)

(** Destination register for a vreg def; [flush] then writes a
    memory-resident one back from it. *)
let dest ctx v = match loc ctx v with Lreg r -> r | Lstack -> Machine.x0

let flush ctx v =
  match loc ctx v with
  | Lreg _ -> ()
  | Lstack ->
      emit ctx (Asm.Sw (Machine.x0, Machine.sp, home ctx v, Asm.Tscalar))

let move_into ctx (dst : Machine.reg) o =
  match o with
  | Ir.Imm n -> emit ctx (Asm.Li (dst, n))
  | Ir.Reg v -> (
      match loc ctx v with
      | Lreg r -> if r <> dst then emit ctx (Asm.Move (dst, r))
      | Lstack -> emit ctx (Asm.Lw (dst, Machine.sp, home ctx v, Asm.Tscalar)))

let arg_source ctx o =
  match o with
  | Ir.Imm n -> Parallel_move.From_imm n
  | Ir.Reg v -> (
      match loc ctx v with
      | Lreg r -> Parallel_move.From_reg r
      | Lstack -> Parallel_move.From_slot (home ctx v, Asm.Tscalar))

let emit_call ctx l idx target args ret =
  let plan =
    match Hashtbl.find_opt ctx.res.r_call_plans (l, idx) with
    | Some plan -> plan
    | None -> invalid_arg "Emit: call without plan"
  in
  (* 1. protect live-across registers the callee may clobber *)
  List.iter
    (fun r ->
      emit ctx
        (Asm.Sw (r, Machine.sp, Frame.scratch_slot ctx.frame r, Asm.Tcallsave)))
    plan.cp_saves;
  (* 2. indirect targets move to the call scratch before arguments do *)
  (match target with
  | Ir.Direct _ -> ()
  | Ir.Indirect v -> move_into ctx Machine.x2 (Ir.Reg v));
  (* 3. stack arguments *)
  List.iteri
    (fun i (arg, al) ->
      match al with
      | Pstack ->
          let r = fetch ctx arg Machine.x0 in
          emit ctx (Asm.Sw (r, Machine.sp, i, Asm.Tstackarg))
      | Preg _ -> ())
    (List.combine args plan.cp_arg_locs);
  (* 4. register arguments, as one parallel move *)
  let reg_moves =
    List.filter_map
      (fun (arg, al) ->
        match al with
        | Preg r -> Some (r, arg_source ctx arg)
        | Pstack -> None)
      (List.combine args plan.cp_arg_locs)
  in
  List.iter (fun i -> emit ctx i)
    (Parallel_move.resolve ~temp:Machine.x1 reg_moves);
  (* 5. transfer *)
  (match target with
  | Ir.Direct f -> emit ctx (Asm.Jal f)
  | Ir.Indirect _ -> emit ctx (Asm.Jalr Machine.x2));
  (* 6. recover protected registers *)
  List.iter
    (fun r ->
      emit ctx
        (Asm.Lw (r, Machine.sp, Frame.scratch_slot ctx.frame r, Asm.Tcallsave)))
    (List.rev plan.cp_saves);
  (* 7. land the return value *)
  match ret with
  | None -> ()
  | Some v -> (
      match loc ctx v with
      | Lreg r -> if r <> Machine.v0 then emit ctx (Asm.Move (r, Machine.v0))
      | Lstack ->
          emit ctx (Asm.Sw (Machine.v0, Machine.sp, home ctx v, Asm.Tscalar)))

let emit_inst ctx l idx (inst : Ir.inst) =
  match inst with
  | Ir.Li (d, n) ->
      let rd = dest ctx d in
      emit ctx (Asm.Li (rd, n));
      flush ctx d
  | Ir.Mov (d, s) -> (
      match (loc ctx d, loc ctx s) with
      | Lreg rd, Lreg rs -> if rd <> rs then emit ctx (Asm.Move (rd, rs))
      | Lreg rd, Lstack ->
          emit ctx (Asm.Lw (rd, Machine.sp, home ctx s, Asm.Tscalar))
      | Lstack, Lreg rs ->
          emit ctx (Asm.Sw (rs, Machine.sp, home ctx d, Asm.Tscalar))
      | Lstack, Lstack ->
          emit ctx (Asm.Lw (Machine.x0, Machine.sp, home ctx s, Asm.Tscalar));
          emit ctx (Asm.Sw (Machine.x0, Machine.sp, home ctx d, Asm.Tscalar)))
  | Ir.Neg (d, o) ->
      let rs = fetch ctx o Machine.x0 in
      let rd = dest ctx d in
      emit ctx (Asm.Neg (rd, rs));
      flush ctx d
  | Ir.Not (d, o) ->
      let rs = fetch ctx o Machine.x0 in
      let rd = dest ctx d in
      emit ctx (Asm.Not (rd, rs));
      flush ctx d
  | Ir.Binop (op, d, a, b) -> (
      let ra = fetch ctx a Machine.x0 in
      match b with
      | Ir.Imm n ->
          let rd = dest ctx d in
          emit ctx (Asm.Binopi (op, rd, ra, n));
          flush ctx d
      | Ir.Reg _ ->
          let rb = fetch ctx b Machine.x1 in
          let rd = dest ctx d in
          emit ctx (Asm.Binop (op, rd, ra, rb));
          flush ctx d)
  | Ir.Cmp (op, d, a, b) -> (
      let ra = fetch ctx a Machine.x0 in
      match b with
      | Ir.Imm n ->
          let rd = dest ctx d in
          emit ctx (Asm.Cmpi (op, rd, ra, n));
          flush ctx d
      | Ir.Reg _ ->
          let rb = fetch ctx b Machine.x1 in
          let rd = dest ctx d in
          emit ctx (Asm.Cmp (op, rd, ra, rb));
          flush ctx d)
  | Ir.Load (d, Ir.Global_word (g, k)) ->
      let rd = dest ctx d in
      emit ctx (Asm.Lw (rd, Machine.zero, base ctx g + k, Asm.Tdata));
      flush ctx d
  | Ir.Load (d, Ir.Global_index (g, idx)) ->
      let ri = fetch ctx idx Machine.x0 in
      emit ctx (Asm.Binopi (Ir.Add, Machine.x0, ri, base ctx g));
      let rd = dest ctx d in
      emit ctx (Asm.Lw (rd, Machine.x0, 0, Asm.Tdata));
      flush ctx d
  | Ir.Store (Ir.Global_word (g, k), o) ->
      let rs = fetch ctx o Machine.x1 in
      emit ctx (Asm.Sw (rs, Machine.zero, base ctx g + k, Asm.Tdata))
  | Ir.Store (Ir.Global_index (g, idx), o) ->
      let ri = fetch ctx idx Machine.x0 in
      emit ctx (Asm.Binopi (Ir.Add, Machine.x0, ri, base ctx g));
      let rs = fetch ctx o Machine.x1 in
      emit ctx (Asm.Sw (rs, Machine.x0, 0, Asm.Tdata))
  | Ir.Addr_of_proc (d, f) ->
      let rd = dest ctx d in
      emit ctx (Asm.Lproc (rd, f));
      flush ctx d
  | Ir.Call { target; args; ret } -> emit_call ctx l idx target args ret
  | Ir.Print o ->
      let r = fetch ctx o Machine.x0 in
      emit ctx (Asm.Print r)

(* the instructions of block [l] from index [idx] on *)
let rec emit_insts ctx l idx = function
  | [] -> ()
  | inst :: rest ->
      emit_inst ctx l idx inst;
      emit_insts ctx l (idx + 1) rest

(** Emit the restores scheduled at this block's exit.  [reads] are the
    registers the terminator still has to read; any of them being restored
    is first parked in a scratch register, and the substitution to apply to
    the terminator is returned as pairs for {!substitute}. *)
let emit_restores ctx l ~reads =
  match ctx.restore_map.(l) with
  | [] -> []
  | restored ->
      let subst =
        List.filter (fun r -> List.mem r restored) reads
        |> List.mapi (fun i r ->
               let scratch = if i = 0 then Machine.x0 else Machine.x1 in
               emit ctx (Asm.Move (scratch, r));
               (r, scratch))
      in
      List.iter
        (fun r ->
          emit ctx
            (Asm.Lw
               (r, Machine.sp, Frame.contract_slot ctx.frame r, Asm.Tsave)))
        restored;
      subst

let substitute subst r =
  match List.assoc_opt r subst with Some s -> s | None -> r

(* [next_label] is the label laid out next, or -1 after the last block *)
let emit_terminator ctx l (term : Ir.terminator) ~next_label =
  match term with
  | Ir.Jump target ->
      let (_ : (Machine.reg * Machine.reg) list) =
        emit_restores ctx l ~reads:[]
      in
      if target <> next_label then emit ctx (Asm.J target)
  | Ir.Cbranch (op, a, b, ltrue, lfalse) ->
      let ra = fetch ctx a Machine.x0 in
      let rb = fetch ctx b Machine.x1 in
      let subst = emit_restores ctx l ~reads:[ ra; rb ] in
      emit ctx (Asm.B (op, substitute subst ra, substitute subst rb, ltrue));
      if lfalse <> next_label then emit ctx (Asm.J lfalse)
  | Ir.Ret o ->
      (* the return value reaches $v0 before contract restores run; a void
         return pins $v0 to 0 so behaviour never depends on allocation *)
      (match o with
      | Some op -> move_into ctx Machine.v0 op
      | None -> emit ctx (Asm.Li (Machine.v0, 0)));
      let (_ : (Machine.reg * Machine.reg) list) =
        emit_restores ctx l ~reads:[]
      in
      if ctx.frame.Frame.size > 0 then
        emit ctx
          (Asm.Binopi (Ir.Add, Machine.sp, Machine.sp, ctx.frame.Frame.size));
      emit ctx Asm.Jr

let emit_prologue ctx =
  let p = ctx.res.r_proc in
  if ctx.frame.Frame.size > 0 then
    emit ctx
      (Asm.Binopi (Ir.Sub, Machine.sp, Machine.sp, ctx.frame.Frame.size));
  (* contract saves scheduled at the entry block run before parameters are
     shuffled out of their arrival registers *)
  List.iter
    (fun r ->
      emit ctx
        (Asm.Sw (r, Machine.sp, Frame.contract_slot ctx.frame r, Asm.Tsave)))
    ctx.save_map.(Ir.entry_label);
  (* parameter arrival: spill stores first, then the register shuffle, then
     loads of stack-arriving parameters into registers *)
  let moves = ref [] in
  let loads = ref [] in
  List.iteri
    (fun i v ->
      if List.nth ctx.res.r_param_live i then
        match (List.nth ctx.res.r_param_locs i, loc ctx v) with
        | Preg arrival, Lreg r ->
            if arrival <> r then
              moves := (r, Parallel_move.From_reg arrival) :: !moves
        | Preg arrival, Lstack ->
            emit ctx (Asm.Sw (arrival, Machine.sp, home ctx v, Asm.Tscalar))
        | Pstack, Lreg r ->
            loads :=
              Asm.Lw
                (r, Machine.sp, Frame.incoming_arg ctx.frame i, Asm.Tstackarg)
              :: !loads
        | Pstack, Lstack -> () (* home is the incoming slot itself *))
    p.Ir.params;
  List.iter (fun i -> emit ctx i)
    (Parallel_move.resolve ~temp:Machine.x1 (List.rev !moves));
  List.iter (fun i -> emit ctx i) (List.rev !loads)

(** [emit_proc ~layout res frame] generates the assembly of one procedure. *)
let emit_proc ~layout (res : result) (frame : Frame.t) : Asm.proc_code =
  let p = res.r_proc in
  let n = Ir.nblocks p in
  (* each label's registers, last scheduled first *)
  let by_label at =
    let m = Array.make n [] in
    List.iter (fun (l, r) -> m.(l) <- r :: m.(l)) at;
    m
  in
  let save_map = by_label res.r_save_at in
  let restore_map = by_label res.r_restore_at in
  let ctx = { res; frame; layout; rev_items = []; save_map; restore_map } in
  for l = 0 to n - 1 do
    emit_label ctx l;
    if l = Ir.entry_label then emit_prologue ctx
    else
      List.iter
        (fun r ->
          emit ctx
            (Asm.Sw (r, Machine.sp, Frame.contract_slot ctx.frame r, Asm.Tsave)))
        save_map.(l);
    let b = Ir.block p l in
    emit_insts ctx l 0 b.Ir.insts;
    let next_label = if l + 1 < n then l + 1 else -1 in
    emit_terminator ctx l b.Ir.term ~next_label
  done;
  { Asm.pc_name = p.Ir.pname; pc_items = List.rev ctx.rev_items }
