(** Recursive-descent parser for Pawn (Menhir is not available in this
    environment, and the grammar is small enough that a hand-written parser
    is clearer anyway).

    Expression grammar, loosest to tightest:
    or-expr > and-expr > comparison > additive > multiplicative > unary
    > primary.

    The parser pulls tokens from a {!Lexer.t} cursor one at a time, so
    lexing runs inside the [parse] span and no token list is built. *)

exception Error of string * int

type state = Lexer.t

let peek (st : state) = st.Lexer.tok
let line (st : state) = st.Lexer.tok_line
let advance = Lexer.next

let error st fmt =
  Format.kasprintf (fun msg -> raise (Error (msg, line st))) fmt

let expect st tok =
  if peek st = tok then advance st
  else
    error st "expected %s but found %s" (Token.to_string tok)
      (Token.to_string (peek st))

let expect_ident st =
  match peek st with
  | Token.IDENT s -> advance st; s
  | t -> error st "expected identifier but found %s" (Token.to_string t)

let expect_int st =
  match peek st with
  | Token.INT n -> advance st; n
  | Token.MINUS -> (
      advance st;
      match peek st with
      | Token.INT n -> advance st; -n
      | t -> error st "expected integer but found %s" (Token.to_string t))
  | t -> error st "expected integer but found %s" (Token.to_string t)

let rec parse_expr st = parse_or st

and parse_or st =
  let lhs = parse_and st in
  if peek st = Token.OROR then begin
    advance st;
    Ast.Binop (Ast.Or, lhs, parse_or st)
  end
  else lhs

and parse_and st =
  let lhs = parse_cmp st in
  if peek st = Token.ANDAND then begin
    advance st;
    Ast.Binop (Ast.And, lhs, parse_and st)
  end
  else lhs

and parse_cmp st =
  let lhs = parse_add st in
  let op =
    match peek st with
    | Token.EQ -> Some Ast.Eq
    | Token.NE -> Some Ast.Ne
    | Token.LT -> Some Ast.Lt
    | Token.LE -> Some Ast.Le
    | Token.GT -> Some Ast.Gt
    | Token.GE -> Some Ast.Ge
    | _ -> None
  in
  match op with
  | Some op ->
      advance st;
      Ast.Binop (op, lhs, parse_add st)
  | None -> lhs

and parse_add st =
  let rec go lhs =
    match peek st with
    | Token.PLUS -> advance st; go (Ast.Binop (Ast.Add, lhs, parse_mul st))
    | Token.MINUS -> advance st; go (Ast.Binop (Ast.Sub, lhs, parse_mul st))
    | _ -> lhs
  in
  go (parse_mul st)

and parse_mul st =
  let rec go lhs =
    match peek st with
    | Token.STAR -> advance st; go (Ast.Binop (Ast.Mul, lhs, parse_unary st))
    | Token.SLASH -> advance st; go (Ast.Binop (Ast.Div, lhs, parse_unary st))
    | Token.PERCENT ->
        advance st;
        go (Ast.Binop (Ast.Rem, lhs, parse_unary st))
    | _ -> lhs
  in
  go (parse_unary st)

and parse_unary st =
  match peek st with
  | Token.MINUS -> advance st; Ast.Neg (parse_unary st)
  | Token.BANG -> advance st; Ast.Not (parse_unary st)
  | Token.AMP ->
      advance st;
      Ast.Addr_of (expect_ident st)
  | _ -> parse_primary st

and parse_primary st =
  match peek st with
  | Token.INT n -> advance st; Ast.Int n
  | Token.LPAREN ->
      advance st;
      let e = parse_expr st in
      expect st Token.RPAREN;
      e
  | Token.IDENT name -> (
      advance st;
      match peek st with
      | Token.LPAREN ->
          advance st;
          let args = parse_args st in
          expect st Token.RPAREN;
          Ast.Call (name, args)
      | Token.LBRACKET ->
          advance st;
          let idx = parse_expr st in
          expect st Token.RBRACKET;
          Ast.Index (name, idx)
      | _ -> Ast.Var name)
  | t -> error st "expected expression but found %s" (Token.to_string t)

and parse_args st =
  if peek st = Token.RPAREN then []
  else
    let rec go acc =
      let acc = parse_expr st :: acc in
      if peek st = Token.COMMA then begin advance st; go acc end
      else List.rev acc
    in
    go []

let rec parse_stmt st : Ast.stmt =
  match peek st with
  | Token.KW_VAR ->
      advance st;
      let name = expect_ident st in
      let init =
        if peek st = Token.ASSIGN then begin
          advance st;
          Some (parse_expr st)
        end
        else None
      in
      expect st Token.SEMI;
      Ast.Slocal (name, init)
  | Token.KW_IF ->
      advance st;
      expect st Token.LPAREN;
      let cond = parse_expr st in
      expect st Token.RPAREN;
      let then_body = parse_block st in
      let else_body =
        if peek st = Token.KW_ELSE then begin
          advance st;
          if peek st = Token.KW_IF then [ parse_stmt st ] else parse_block st
        end
        else []
      in
      Ast.Sif (cond, then_body, else_body)
  | Token.KW_WHILE ->
      advance st;
      expect st Token.LPAREN;
      let cond = parse_expr st in
      expect st Token.RPAREN;
      Ast.Swhile (cond, parse_block st)
  | Token.KW_RETURN ->
      advance st;
      if peek st = Token.SEMI then begin
        advance st;
        Ast.Sreturn None
      end
      else begin
        let e = parse_expr st in
        expect st Token.SEMI;
        Ast.Sreturn (Some e)
      end
  | Token.KW_PRINT ->
      advance st;
      expect st Token.LPAREN;
      let e = parse_expr st in
      expect st Token.RPAREN;
      expect st Token.SEMI;
      Ast.Sprint e
  | Token.IDENT name -> (
      (* assignment, array store, or expression statement *)
      match Lexer.peek2 st with
      | Token.ASSIGN ->
          advance st;
          advance st;
          let e = parse_expr st in
          expect st Token.SEMI;
          Ast.Sassign (name, e)
      | Token.LBRACKET -> (
          (* could be [g[e] = e2;] or an expression statement starting with
             an index; look for the assignment after the bracketed index *)
          let save = Lexer.mark st in
          advance st;
          advance st;
          let idx = parse_expr st in
          expect st Token.RBRACKET;
          match peek st with
          | Token.ASSIGN ->
              advance st;
              let e = parse_expr st in
              expect st Token.SEMI;
              Ast.Sstore (name, idx, e)
          | _ ->
              Lexer.reset st save;
              let e = parse_expr st in
              expect st Token.SEMI;
              Ast.Sexpr e)
      | _ ->
          let e = parse_expr st in
          expect st Token.SEMI;
          Ast.Sexpr e)
  | t -> error st "expected statement but found %s" (Token.to_string t)

and parse_block st =
  expect st Token.LBRACE;
  let rec go acc =
    if peek st = Token.RBRACE then begin
      advance st;
      List.rev acc
    end
    else go (parse_stmt st :: acc)
  in
  go []

let parse_params st =
  expect st Token.LPAREN;
  if peek st = Token.RPAREN then begin advance st; [] end
  else
    let rec go acc =
      let acc = expect_ident st :: acc in
      if peek st = Token.COMMA then begin advance st; go acc end
      else begin
        expect st Token.RPAREN;
        List.rev acc
      end
    in
    go []

let parse_top st : Ast.top =
  match peek st with
  | Token.KW_VAR -> (
      advance st;
      let name = expect_ident st in
      match peek st with
      | Token.LBRACKET ->
          advance st;
          let size = expect_int st in
          expect st Token.RBRACKET;
          let init =
            if peek st = Token.ASSIGN then begin
              advance st;
              expect st Token.LBRACE;
              let rec go acc =
                let acc = expect_int st :: acc in
                if peek st = Token.COMMA then begin advance st; go acc end
                else begin
                  expect st Token.RBRACE;
                  List.rev acc
                end
              in
              if peek st = Token.RBRACE then begin advance st; [] end
              else go []
            end
            else []
          in
          expect st Token.SEMI;
          Ast.Darray (name, size, init)
      | Token.ASSIGN ->
          advance st;
          let v = expect_int st in
          expect st Token.SEMI;
          Ast.Dglobal (name, v)
      | _ ->
          expect st Token.SEMI;
          Ast.Dglobal (name, 0))
  | Token.KW_EXPORT | Token.KW_PROC ->
      let p_export =
        if peek st = Token.KW_EXPORT then begin advance st; true end
        else false
      in
      let p_line = line st in
      expect st Token.KW_PROC;
      let p_name = expect_ident st in
      let p_params = parse_params st in
      let p_body = parse_block st in
      Ast.Dproc { Ast.p_name; p_params; p_body; p_export; p_line }
  | Token.KW_EXTERN ->
      advance st;
      expect st Token.KW_PROC;
      let name = expect_ident st in
      let params = parse_params st in
      expect st Token.SEMI;
      Ast.Dextern (name, List.length params)
  | t ->
      error st "expected top-level declaration but found %s"
        (Token.to_string t)

(** [parse src] lexes and parses a full compilation unit.  A lexical
    error anywhere in the unit wins over a syntax error: before a
    {!Error} leaves, the rest of the unit is lexed, so a malformed token
    after the syntax error raises {!Lexer.Error} instead. *)
let parse src : Ast.program =
  Chow_obs.Event.span "parse" (fun () ->
      let st = Lexer.create src in
      let rec go acc =
        if peek st = Token.EOF then List.rev acc else go (parse_top st :: acc)
      in
      try go []
      with Error _ as e ->
        while peek st <> Token.EOF do advance st done;
        raise e)
