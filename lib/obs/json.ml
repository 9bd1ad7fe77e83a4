(** See json.mli.  Recursive-descent over a cursor into the input string;
    errors report the byte offset. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Fail of string

type state = { src : string; mutable pos : int }

let fail st msg = raise (Fail (Printf.sprintf "%s at offset %d" msg st.pos))
let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    &&
    match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> st.pos <- st.pos + 1
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> st.pos <- st.pos + 1
    | Some '\\' -> (
        st.pos <- st.pos + 1;
        match peek st with
        | None -> fail st "unterminated escape"
        | Some c ->
            st.pos <- st.pos + 1;
            (match c with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'u' ->
                if st.pos + 4 > String.length st.src then
                  fail st "truncated \\u escape";
                let hex = String.sub st.src st.pos 4 in
                st.pos <- st.pos + 4;
                let code =
                  try int_of_string ("0x" ^ hex)
                  with _ -> fail st "bad \\u escape"
                in
                Buffer.add_utf_8_uchar b (Uchar.of_int code)
            | _ -> fail st "bad escape");
            go ())
    | Some c ->
        st.pos <- st.pos + 1;
        Buffer.add_char b c;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number st =
  let start = st.pos in
  let numchar c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    st.pos < String.length st.src && numchar st.src.[st.pos]
  do
    st.pos <- st.pos + 1
  done;
  if st.pos = start then fail st "expected number";
  match float_of_string_opt (String.sub st.src start (st.pos - start)) with
  | Some f -> f
  | None -> fail st "malformed number"

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some '}' then begin
        st.pos <- st.pos + 1;
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              fields ((k, v) :: acc)
          | Some '}' ->
              st.pos <- st.pos + 1;
              List.rev ((k, v) :: acc)
          | _ -> fail st "expected ',' or '}'"
        in
        Obj (fields [])
      end
  | Some '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some ']' then begin
        st.pos <- st.pos + 1;
        Arr []
      end
      else begin
        let rec items acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              items (v :: acc)
          | Some ']' ->
              st.pos <- st.pos + 1;
              List.rev (v :: acc)
          | _ -> fail st "expected ',' or ']'"
        in
        Arr (items [])
      end
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> Num (parse_number st)

let parse src =
  let st = { src; pos = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.pos <> String.length src then
        Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
      else Ok v
  | exception Fail msg -> Error msg

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s
