(** Hand-written lexer for Pawn: a cursor over the source that the parser
    steps one token at a time, so no token list or array is ever built.
    Supports [//] line comments and [/* ... */] block comments. *)

exception Error of string * int  (** message, line *)

type t = {
  src : string;
  mutable pos : int;  (** offset of the first character not yet scanned *)
  mutable line : int;  (** line at [pos] *)
  mutable tok : Token.t;  (** current token *)
  mutable tok_line : int;  (** line of [tok] *)
}

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(* the character [k] past [lx.pos], or NUL past the end *)
let char_at lx k =
  let i = lx.pos + k in
  if i < String.length lx.src then String.unsafe_get lx.src i else '\000'

(* skip the rest of a block comment whose [/*] is already consumed *)
let rec skip_comment lx =
  if lx.pos >= String.length lx.src then
    raise (Error ("unterminated comment", lx.line))
  else if lx.src.[lx.pos] = '*' && char_at lx 1 = '/' then lx.pos <- lx.pos + 2
  else begin
    if lx.src.[lx.pos] = '\n' then lx.line <- lx.line + 1;
    lx.pos <- lx.pos + 1;
    skip_comment lx
  end

(* skip whitespace and comments up to the start of the next token *)
let rec skip_blank lx =
  let src = lx.src and n = String.length lx.src in
  if lx.pos < n then
    match src.[lx.pos] with
    | '\n' ->
        lx.line <- lx.line + 1;
        lx.pos <- lx.pos + 1;
        skip_blank lx
    | ' ' | '\t' | '\r' ->
        lx.pos <- lx.pos + 1;
        skip_blank lx
    | '/' when char_at lx 1 = '/' ->
        while lx.pos < n && src.[lx.pos] <> '\n' do lx.pos <- lx.pos + 1 done;
        skip_blank lx
    | '/' when char_at lx 1 = '*' ->
        lx.pos <- lx.pos + 2;
        skip_comment lx;
        skip_blank lx
    | _ -> ()

(* [tok], whose spelling is [k] characters at [lx.pos]; advances past it *)
let width lx k tok =
  lx.pos <- lx.pos + k;
  tok

(* the token starting at [lx.pos], which is not blank; advances past it *)
let scan lx =
  let src = lx.src and n = String.length lx.src in
  let c = src.[lx.pos] in
  if is_digit c then begin
    let start = lx.pos in
    while lx.pos < n && is_digit src.[lx.pos] do lx.pos <- lx.pos + 1 done;
    match int_of_string_opt (String.sub src start (lx.pos - start)) with
    | Some k -> Token.INT k
    | None -> raise (Error ("integer literal out of range", lx.line))
  end
  else if is_ident_start c then begin
    let start = lx.pos in
    while lx.pos < n && is_ident_char src.[lx.pos] do lx.pos <- lx.pos + 1 done;
    match String.sub src start (lx.pos - start) with
    | "var" -> Token.KW_VAR
    | "proc" -> Token.KW_PROC
    | "export" -> Token.KW_EXPORT
    | "extern" -> Token.KW_EXTERN
    | "if" -> Token.KW_IF
    | "else" -> Token.KW_ELSE
    | "while" -> Token.KW_WHILE
    | "return" -> Token.KW_RETURN
    | "print" -> Token.KW_PRINT
    | word -> Token.IDENT word
  end
  else begin
    match (c, char_at lx 1) with
    | '=', '=' -> width lx 2 Token.EQ
    | '!', '=' -> width lx 2 Token.NE
    | '<', '=' -> width lx 2 Token.LE
    | '>', '=' -> width lx 2 Token.GE
    | '&', '&' -> width lx 2 Token.ANDAND
    | '|', '|' -> width lx 2 Token.OROR
    | '=', _ -> width lx 1 Token.ASSIGN
    | '<', _ -> width lx 1 Token.LT
    | '>', _ -> width lx 1 Token.GT
    | '!', _ -> width lx 1 Token.BANG
    | '&', _ -> width lx 1 Token.AMP
    | '+', _ -> width lx 1 Token.PLUS
    | '-', _ -> width lx 1 Token.MINUS
    | '*', _ -> width lx 1 Token.STAR
    | '/', _ -> width lx 1 Token.SLASH
    | '%', _ -> width lx 1 Token.PERCENT
    | '(', _ -> width lx 1 Token.LPAREN
    | ')', _ -> width lx 1 Token.RPAREN
    | '{', _ -> width lx 1 Token.LBRACE
    | '}', _ -> width lx 1 Token.RBRACE
    | '[', _ -> width lx 1 Token.LBRACKET
    | ']', _ -> width lx 1 Token.RBRACKET
    | ';', _ -> width lx 1 Token.SEMI
    | ',', _ -> width lx 1 Token.COMMA
    | _ -> raise (Error (Printf.sprintf "unexpected character %C" c, lx.line))
  end

let next lx =
  skip_blank lx;
  lx.tok_line <- lx.line;
  lx.tok <- (if lx.pos < String.length lx.src then scan lx else Token.EOF)

let create src =
  let lx = { src; pos = 0; line = 1; tok = Token.EOF; tok_line = 1 } in
  next lx;
  lx

type mark = { m_pos : int; m_line : int; m_tok : Token.t; m_tok_line : int }

let mark lx =
  { m_pos = lx.pos; m_line = lx.line; m_tok = lx.tok; m_tok_line = lx.tok_line }

let reset lx m =
  lx.pos <- m.m_pos;
  lx.line <- m.m_line;
  lx.tok <- m.m_tok;
  lx.tok_line <- m.m_tok_line

let peek2 lx =
  let m = mark lx in
  next lx;
  let after = lx.tok in
  reset lx m;
  after

let tokenize src =
  let lx = create src in
  let rec go acc =
    let acc = (lx.tok, lx.tok_line) :: acc in
    match lx.tok with
    | Token.EOF -> List.rev acc
    | _ -> next lx; go acc
  in
  go []
