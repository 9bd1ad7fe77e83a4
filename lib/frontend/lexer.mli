(** Hand-written lexer for Pawn: a cursor the parser pulls tokens from.
    Supports [//] line comments and [/* ... */] block comments. *)

exception Error of string * int  (** message, line number *)

(** A cursor over one source text, positioned on its current token.  The
    fields are readable so the parser can look at the token without a
    call; only the functions below move the cursor. *)
type t = private {
  src : string;
  mutable pos : int;  (** offset of the first character not yet scanned *)
  mutable line : int;  (** line at [pos] *)
  mutable tok : Token.t;  (** current token; [EOF] once the text is spent *)
  mutable tok_line : int;  (** line of [tok] *)
}

(** [create src] is a cursor on the first token of [src].  Raises
    {!Error} if that token is malformed. *)
val create : string -> t

(** [next lx] steps to the token after the current one; at [EOF] it stays
    there.  Raises {!Error} if that token is malformed. *)
val next : t -> unit

(** A saved cursor position. *)
type mark

val mark : t -> mark

(** [reset lx m] moves [lx] back to where it was when [m] was taken. *)
val reset : t -> mark -> unit

(** [peek2 lx] is the token after the current one; the cursor does not
    move. *)
val peek2 : t -> Token.t

(** [tokenize src] is the token stream with line numbers, ending with
    [EOF]. *)
val tokenize : string -> (Token.t * int) list
