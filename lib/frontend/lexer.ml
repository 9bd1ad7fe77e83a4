(** Hand-written lexer for Pawn.  Produces the token stream with line
    numbers; supports [//] line comments and [/* ... */] block comments. *)

exception Error of string * int  (** message, line *)

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(** [tokenize src] is the list of (token, line) pairs ending with [EOF]. *)
let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 in
  let push t = toks := (t, !line) :: !toks in
  let i = ref 0 in
  let peek k = if !i + k < n then src.[!i + k] else '\000' in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then begin incr line; incr i end
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && peek 1 = '/' then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if c = '/' && peek 1 = '*' then begin
      i := !i + 2;
      let rec skip () =
        if !i >= n then raise (Error ("unterminated comment", !line))
        else if src.[!i] = '*' && peek 1 = '/' then i := !i + 2
        else begin
          if src.[!i] = '\n' then incr line;
          incr i;
          skip ()
        end
      in
      skip ()
    end
    else if is_digit c then begin
      let start = !i in
      while !i < n && is_digit src.[!i] do incr i done;
      match int_of_string_opt (String.sub src start (!i - start)) with
      | Some k -> push (Token.INT k)
      | None -> raise (Error ("integer literal out of range", !line))
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do incr i done;
      let word = String.sub src start (!i - start) in
      push
        (match word with
        | "var" -> Token.KW_VAR
        | "proc" -> Token.KW_PROC
        | "export" -> Token.KW_EXPORT
        | "extern" -> Token.KW_EXTERN
        | "if" -> Token.KW_IF
        | "else" -> Token.KW_ELSE
        | "while" -> Token.KW_WHILE
        | "return" -> Token.KW_RETURN
        | "print" -> Token.KW_PRINT
        | _ -> Token.IDENT word)
    end
    else begin
      let two tok = push tok; i := !i + 2 in
      let one tok = push tok; incr i in
      match (c, peek 1) with
      | '=', '=' -> two Token.EQ
      | '!', '=' -> two Token.NE
      | '<', '=' -> two Token.LE
      | '>', '=' -> two Token.GE
      | '&', '&' -> two Token.ANDAND
      | '|', '|' -> two Token.OROR
      | '=', _ -> one Token.ASSIGN
      | '<', _ -> one Token.LT
      | '>', _ -> one Token.GT
      | '!', _ -> one Token.BANG
      | '&', _ -> one Token.AMP
      | '+', _ -> one Token.PLUS
      | '-', _ -> one Token.MINUS
      | '*', _ -> one Token.STAR
      | '/', _ -> one Token.SLASH
      | '%', _ -> one Token.PERCENT
      | '(', _ -> one Token.LPAREN
      | ')', _ -> one Token.RPAREN
      | '{', _ -> one Token.LBRACE
      | '}', _ -> one Token.RBRACE
      | '[', _ -> one Token.LBRACKET
      | ']', _ -> one Token.RBRACKET
      | ';', _ -> one Token.SEMI
      | ',', _ -> one Token.COMMA
      | _ -> raise (Error (Printf.sprintf "unexpected character %C" c, !line))
    end
  done;
  push Token.EOF;
  List.rev !toks
