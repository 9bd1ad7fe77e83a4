(** Name resolution and semantic checking for Pawn.

    Builds the unit-level symbol table and verifies: no duplicate
    definitions, variables declared before use, direct calls have matching
    arity, indexing only applies to global arrays, assignment targets are
    scalars, and [&f] only takes addresses of procedures. *)

exception Error of string

type symbol = Sscalar | Sarray of int | Sproc of int | Sextern of int

type env = { table : (string, symbol) Hashtbl.t }

let err fmt = Format.kasprintf (fun m -> raise (Error m)) fmt

let build_env (prog : Ast.program) =
  let table = Hashtbl.create 64 in
  let add name sym =
    if Hashtbl.mem table name then err "duplicate definition of %s" name;
    Hashtbl.add table name sym
  in
  List.iter
    (function
      | Ast.Dglobal (g, _) -> add g Sscalar
      | Ast.Darray (g, size, init) ->
          if size <= 0 then err "array %s has non-positive size" g;
          if List.length init > size then err "array %s initializer too long" g;
          add g (Sarray size)
      | Ast.Dproc p -> add p.Ast.p_name (Sproc (List.length p.Ast.p_params))
      | Ast.Dextern (f, arity) -> add f (Sextern arity))
    prog;
  { table }

let lookup env name = Hashtbl.find_opt env.table name

type scope = { mutable names : string list; parent : scope option }

let rec mem_name name = function
  | [] -> false
  | x :: rest -> String.equal x name || mem_name name rest

let rec in_scope scope name =
  match scope with
  | None -> false
  | Some s -> mem_name name s.names || in_scope s.parent name

let check_proc env (p : Ast.proc_decl) =
  let dups =
    List.filter
      (fun x ->
        List.length (List.filter (String.equal x) p.Ast.p_params) > 1)
      p.Ast.p_params
  in
  (match dups with
  | d :: _ -> err "%s: duplicate parameter %s" p.Ast.p_name d
  | [] -> ());
  let rec check_expr scope (e : Ast.expr) =
    match e with
    | Ast.Int _ -> ()
    | Ast.Var x -> (
        if not (in_scope (Some scope) x) then
          match lookup env x with
          | Some Sscalar -> ()
          | Some (Sarray _) ->
              err "%s: array %s used as a scalar" p.Ast.p_name x
          | Some (Sproc _ | Sextern _) ->
              err "%s: procedure %s used as a value (use &%s)" p.Ast.p_name x x
          | None -> err "%s: undefined variable %s" p.Ast.p_name x)
    | Ast.Index (g, idx) -> (
        check_expr scope idx;
        if in_scope (Some scope) g then
          err "%s: local %s cannot be indexed" p.Ast.p_name g
        else
          match lookup env g with
          | Some (Sarray _) -> ()
          | Some _ -> err "%s: %s is not an array" p.Ast.p_name g
          | None -> err "%s: undefined array %s" p.Ast.p_name g)
    | Ast.Call (f, args) -> (
        List.iter (check_expr scope) args;
        if in_scope (Some scope) f then () (* indirect through a local *)
        else
          match lookup env f with
          | Some (Sproc arity | Sextern arity) ->
              if List.length args <> arity then
                err "%s: call to %s with %d args, expected %d" p.Ast.p_name f
                  (List.length args) arity
          | Some Sscalar -> () (* indirect through a global scalar *)
          | Some (Sarray _) ->
              err "%s: array %s is not callable" p.Ast.p_name f
          | None -> err "%s: call to undefined %s" p.Ast.p_name f)
    | Ast.Addr_of f -> (
        match lookup env f with
        | Some (Sproc _ | Sextern _) -> ()
        | Some _ -> err "%s: &%s does not name a procedure" p.Ast.p_name f
        | None -> err "%s: &%s undefined" p.Ast.p_name f)
    | Ast.Neg e | Ast.Not e -> check_expr scope e
    | Ast.Binop (_, a, b) -> check_expr scope a; check_expr scope b
  in
  let rec check_stmts scope stmts =
    List.iter
      (fun (s : Ast.stmt) ->
        match s with
        | Ast.Slocal (x, init) ->
            Option.iter (check_expr scope) init;
            scope.names <- x :: scope.names
        | Ast.Sassign (x, e) -> (
            check_expr scope e;
            if not (in_scope (Some scope) x) then
              match lookup env x with
              | Some Sscalar -> ()
              | Some _ ->
                  err "%s: cannot assign to %s" p.Ast.p_name x
              | None -> err "%s: assignment to undefined %s" p.Ast.p_name x)
        | Ast.Sstore (g, idx, e) -> (
            check_expr scope idx;
            check_expr scope e;
            match lookup env g with
            | Some (Sarray _) when not (in_scope (Some scope) g) -> ()
            | _ -> err "%s: %s is not a global array" p.Ast.p_name g)
        | Ast.Sif (c, t, f) ->
            check_expr scope c;
            check_stmts { names = []; parent = Some scope } t;
            check_stmts { names = []; parent = Some scope } f
        | Ast.Swhile (c, body) ->
            check_expr scope c;
            check_stmts { names = []; parent = Some scope } body
        | Ast.Sreturn e -> Option.iter (check_expr scope) e
        | Ast.Sprint e -> check_expr scope e
        | Ast.Sexpr e -> check_expr scope e)
      stmts
  in
  check_stmts { names = p.Ast.p_params; parent = None } p.Ast.p_body

(** [check prog] is the environment for a well-formed program; raises
    {!Error} otherwise.  Also requires a [main] procedure of arity 0 when
    [require_main]. *)
let check ?(require_main = true) (prog : Ast.program) =
  let env = build_env prog in
  List.iter
    (function
      | Ast.Dproc p -> check_proc env p
      | Ast.Dglobal _ | Ast.Darray _ | Ast.Dextern _ -> ())
    prog;
  if require_main then begin
    match lookup env "main" with
    | Some (Sproc 0) -> ()
    | Some (Sproc _) -> err "main must take no parameters"
    | _ -> err "program has no main procedure"
  end;
  env
