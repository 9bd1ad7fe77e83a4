(** Lowering from the Pawn AST to the IR.

    Every scalar local, parameter and expression temporary becomes a virtual
    register; globals are accessed through explicit loads and stores at each
    mention (their promotion to registers is the allocator's job, not the
    front-end's).  Short-circuit [&&]/[||] lower to control flow.  Declared
    locals without an initializer are zeroed so program behaviour is
    deterministic under every allocation strategy. *)

module Ir = Chow_ir.Ir
module Builder = Chow_ir.Builder
module Verify = Chow_ir.Verify

type scope = { mutable bindings : (string * Ir.vreg) list; parent : scope option }

let rec assoc_name name = function
  | [] -> None
  | (x, v) :: rest -> if String.equal x name then Some v else assoc_name name rest

let rec lookup_local scope name =
  match scope with
  | None -> None
  | Some s -> (
      match assoc_name name s.bindings with
      | Some v -> Some v
      | None -> lookup_local s.parent name)

let binop_of_ast : Ast.binop -> Ir.binop = function
  | Ast.Add -> Ir.Add
  | Ast.Sub -> Ir.Sub
  | Ast.Mul -> Ir.Mul
  | Ast.Div -> Ir.Div
  | Ast.Rem -> Ir.Rem
  | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.And | Ast.Or ->
      invalid_arg "binop_of_ast"

let relop_of_ast : Ast.binop -> Ir.relop option = function
  | Ast.Eq -> Some Ir.Eq
  | Ast.Ne -> Some Ir.Ne
  | Ast.Lt -> Some Ir.Lt
  | Ast.Le -> Some Ir.Le
  | Ast.Gt -> Some Ir.Gt
  | Ast.Ge -> Some Ir.Ge
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Rem | Ast.And | Ast.Or -> None

type ctx = { env : Check.env; bld : Builder.t }

let rec lower_expr ctx scope (e : Ast.expr) : Ir.operand =
  match e with
  | Ast.Int n -> Ir.Imm n
  | Ast.Var x -> (
      match lookup_local (Some scope) x with
      | Some v -> Ir.Reg v
      | None ->
          let t = Builder.new_vreg ctx.bld in
          Builder.emit ctx.bld (Ir.Load (t, Ir.Global_word (x, 0)));
          Ir.Reg t)
  | Ast.Index (g, idx) ->
      let i = lower_expr ctx scope idx in
      let t = Builder.new_vreg ctx.bld in
      Builder.emit ctx.bld (Ir.Load (t, Ir.Global_index (g, i)));
      Ir.Reg t
  | Ast.Call (f, args) -> (
      match lower_call ctx scope f args ~want_value:true with
      | Some v -> Ir.Reg v
      | None -> assert false)
  | Ast.Addr_of f ->
      let t = Builder.new_vreg ctx.bld in
      Builder.emit ctx.bld (Ir.Addr_of_proc (t, f));
      Ir.Reg t
  | Ast.Neg e ->
      let o = lower_expr ctx scope e in
      let t = Builder.new_vreg ctx.bld in
      Builder.emit ctx.bld (Ir.Neg (t, o));
      Ir.Reg t
  | Ast.Not e ->
      let o = lower_expr ctx scope e in
      let t = Builder.new_vreg ctx.bld in
      Builder.emit ctx.bld (Ir.Not (t, o));
      Ir.Reg t
  | Ast.Binop ((Ast.And | Ast.Or), _, _) ->
      (* materialize the truth value through control flow *)
      let t = Builder.new_vreg ctx.bld in
      let ltrue = Builder.new_block ctx.bld in
      let lfalse = Builder.new_block ctx.bld in
      let lend = Builder.new_block ctx.bld in
      lower_cond ctx scope e ~ltrue ~lfalse;
      Builder.switch_to ctx.bld ltrue;
      Builder.emit ctx.bld (Ir.Li (t, 1));
      Builder.terminate ctx.bld (Ir.Jump lend);
      Builder.switch_to ctx.bld lfalse;
      Builder.emit ctx.bld (Ir.Li (t, 0));
      Builder.terminate ctx.bld (Ir.Jump lend);
      Builder.switch_to ctx.bld lend;
      Ir.Reg t
  | Ast.Binop (op, a, b) -> (
      let oa = lower_expr ctx scope a in
      let ob = lower_expr ctx scope b in
      let t = Builder.new_vreg ctx.bld in
      match relop_of_ast op with
      | Some rel ->
          Builder.emit ctx.bld (Ir.Cmp (rel, t, oa, ob));
          Ir.Reg t
      | None ->
          Builder.emit ctx.bld (Ir.Binop (binop_of_ast op, t, oa, ob));
          Ir.Reg t)

and lower_call ctx scope f args ~want_value =
  let argops = List.map (lower_expr ctx scope) args in
  let target =
    match lookup_local (Some scope) f with
    | Some v -> Ir.Indirect v
    | None -> (
        match Check.lookup ctx.env f with
        | Some (Check.Sproc _ | Check.Sextern _) -> Ir.Direct f
        | Some Check.Sscalar ->
            (* indirect through a global scalar holding a procedure address *)
            let t = Builder.new_vreg ctx.bld in
            Builder.emit ctx.bld (Ir.Load (t, Ir.Global_word (f, 0)));
            Ir.Indirect t
        | Some (Check.Sarray _) | None -> assert false (* ruled out by Check *))
  in
  let ret = if want_value then Some (Builder.new_vreg ctx.bld) else None in
  Builder.emit ctx.bld (Ir.Call { target; args = argops; ret });
  ret

(** [lower_cond ctx scope e ~ltrue ~lfalse] terminates the current block
    with control flow that reaches [ltrue] iff [e] evaluates non-zero. *)
and lower_cond ctx scope (e : Ast.expr) ~ltrue ~lfalse =
  match e with
  | Ast.Binop (Ast.And, a, b) ->
      let lmid = Builder.new_block ctx.bld in
      lower_cond ctx scope a ~ltrue:lmid ~lfalse;
      Builder.switch_to ctx.bld lmid;
      lower_cond ctx scope b ~ltrue ~lfalse
  | Ast.Binop (Ast.Or, a, b) ->
      let lmid = Builder.new_block ctx.bld in
      lower_cond ctx scope a ~ltrue ~lfalse:lmid;
      Builder.switch_to ctx.bld lmid;
      lower_cond ctx scope b ~ltrue ~lfalse
  | Ast.Not e -> lower_cond ctx scope e ~ltrue:lfalse ~lfalse:ltrue
  | Ast.Binop (op, a, b) when relop_of_ast op <> None ->
      let oa = lower_expr ctx scope a in
      let ob = lower_expr ctx scope b in
      let rel = Option.get (relop_of_ast op) in
      Builder.terminate ctx.bld (Ir.Cbranch (rel, oa, ob, ltrue, lfalse))
  | Ast.Int n ->
      Builder.terminate ctx.bld (Ir.Jump (if n <> 0 then ltrue else lfalse))
  | _ ->
      let o = lower_expr ctx scope e in
      Builder.terminate ctx.bld (Ir.Cbranch (Ir.Ne, o, Ir.Imm 0, ltrue, lfalse))

let assign_into ctx (dst : Ir.vreg) (src : Ir.operand) =
  match src with
  | Ir.Imm n -> Builder.emit ctx.bld (Ir.Li (dst, n))
  | Ir.Reg v -> if v <> dst then Builder.emit ctx.bld (Ir.Mov (dst, v))

let rec lower_stmts ctx scope (stmts : Ast.stmt list) =
  List.iter
    (fun (s : Ast.stmt) ->
      match s with
      | Ast.Slocal (x, init) ->
          let v = Builder.new_vreg ~kind:(Ir.Vlocal x) ctx.bld in
          (match init with
          | Some e -> assign_into ctx v (lower_expr ctx scope e)
          | None -> Builder.emit ctx.bld (Ir.Li (v, 0)));
          scope.bindings <- (x, v) :: scope.bindings
      | Ast.Sassign (x, e) -> (
          let o = lower_expr ctx scope e in
          match lookup_local (Some scope) x with
          | Some v -> assign_into ctx v o
          | None -> Builder.emit ctx.bld (Ir.Store (Ir.Global_word (x, 0), o)))
      | Ast.Sstore (g, idx, e) ->
          let i = lower_expr ctx scope idx in
          let o = lower_expr ctx scope e in
          Builder.emit ctx.bld (Ir.Store (Ir.Global_index (g, i), o))
      | Ast.Sif (c, then_body, else_body) ->
          let lthen = Builder.new_block ctx.bld in
          let lelse = Builder.new_block ctx.bld in
          let lend = Builder.new_block ctx.bld in
          lower_cond ctx scope c ~ltrue:lthen ~lfalse:lelse;
          Builder.switch_to ctx.bld lthen;
          lower_stmts ctx { bindings = []; parent = Some scope } then_body;
          Builder.terminate ctx.bld (Ir.Jump lend);
          Builder.switch_to ctx.bld lelse;
          lower_stmts ctx { bindings = []; parent = Some scope } else_body;
          Builder.terminate ctx.bld (Ir.Jump lend);
          Builder.switch_to ctx.bld lend
      | Ast.Swhile (c, body) ->
          let lhead = Builder.new_block ctx.bld in
          let lbody = Builder.new_block ctx.bld in
          let lexit = Builder.new_block ctx.bld in
          Builder.terminate ctx.bld (Ir.Jump lhead);
          Builder.switch_to ctx.bld lhead;
          lower_cond ctx scope c ~ltrue:lbody ~lfalse:lexit;
          Builder.switch_to ctx.bld lbody;
          lower_stmts ctx { bindings = []; parent = Some scope } body;
          Builder.terminate ctx.bld (Ir.Jump lhead);
          Builder.switch_to ctx.bld lexit
      | Ast.Sreturn e ->
          let o = Option.map (lower_expr ctx scope) e in
          Builder.terminate ctx.bld (Ir.Ret o)
      | Ast.Sprint e ->
          let o = lower_expr ctx scope e in
          Builder.emit ctx.bld (Ir.Print o)
      | Ast.Sexpr (Ast.Call (f, args)) ->
          ignore (lower_call ctx scope f args ~want_value:false)
      | Ast.Sexpr e ->
          (* pure expression in statement position: evaluate for any call it
             contains, discard the value *)
          ignore (lower_expr ctx scope e))
    stmts

let lower_proc env (p : Ast.proc_decl) : Ir.proc =
  let bld = Builder.create ~exported:(p.Ast.p_export || p.Ast.p_name = "main")
      p.Ast.p_name
  in
  let ctx = { env; bld } in
  let scope = { bindings = []; parent = None } in
  List.iter
    (fun name ->
      let v = Builder.add_param bld name in
      scope.bindings <- (name, v) :: scope.bindings)
    p.Ast.p_params;
  lower_stmts ctx scope p.Ast.p_body;
  (* fall off the end: implicit return handled by Builder.finish *)
  Builder.finish bld

(** [lower_program prog] checks and lowers a full compilation unit. *)
let lower_program ?(require_main = true) (prog : Ast.program) : Ir.prog =
  let env = Check.check ~require_main prog in
  let globals =
    List.filter_map
      (function
        | Ast.Dglobal (g, init) -> Some (g, Ir.Gscalar init)
        | Ast.Darray (g, size, init) -> Some (g, Ir.Garray (size, init))
        | Ast.Dproc _ | Ast.Dextern _ -> None)
      prog
  in
  let externs =
    List.filter_map
      (function
        | Ast.Dextern (f, _) -> Some f
        | Ast.Dglobal _ | Ast.Darray _ | Ast.Dproc _ -> None)
      prog
  in
  let procs =
    List.filter_map
      (function
        | Ast.Dproc p -> Some (lower_proc env p)
        | Ast.Dglobal _ | Ast.Darray _ | Ast.Dextern _ -> None)
      prog
  in
  let ir = { Ir.procs; globals; externs } in
  Verify.check_prog ir;
  ir

(** [compile_unit src] parses, checks and lowers Pawn source text. *)
let compile_unit ?(require_main = true) src =
  let ast = Parser.parse src in
  Chow_obs.Event.span "lower" (fun () -> lower_program ~require_main ast)
