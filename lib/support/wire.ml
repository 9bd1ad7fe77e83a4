(** See wire.mli for the encoding and the reader's rules. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

(* ----- writers ----- *)

let put_byte b n = Buffer.add_char b (Char.chr n)

(* the loop treats [n] as a 63-bit pattern and shifts logically, so a
   zigzag value with the top bit set (from an int near max_int/min_int)
   still ends within 9 bytes *)
let rec put_raw b n =
  if n land lnot 0x7f = 0 then Buffer.add_char b (Char.unsafe_chr n)
  else begin
    Buffer.add_char b (Char.unsafe_chr (0x80 lor (n land 0x7f)));
    put_raw b (n lsr 7)
  end

let put_uint b n =
  if n < 0 then invalid_arg "Wire.put_uint: negative";
  put_raw b n

let put_int b n = put_raw b ((n lsl 1) lxor (n asr 62))
let put_bool b v = Buffer.add_char b (if v then '\001' else '\000')

let put_string b s =
  put_uint b (String.length s);
  Buffer.add_string b s

let put_list b put xs =
  put_uint b (List.length xs);
  List.iter (put b) xs

let put_option b put = function
  | None -> put_bool b false
  | Some v ->
      put_bool b true;
      put b v

let put_enum b table v =
  let rec index i = if table.(i) = v then i else index (i + 1) in
  put_byte b (index 0)

(* ----- readers ----- *)

type reader = { buf : string; mutable pos : int; limit : int }

let reader s = { buf = s; pos = 0; limit = String.length s }
let remaining r = r.limit - r.pos

let byte r =
  if r.pos >= r.limit then corrupt "truncated at offset %d" r.pos;
  let c = Char.code (String.unsafe_get r.buf r.pos) in
  r.pos <- r.pos + 1;
  c

(* 9 bytes carry all 63 bits; a tenth is garbage *)
let get_raw r =
  let rec go shift acc =
    if shift > 56 then
      corrupt "varint longer than 9 bytes at offset %d" r.pos;
    let c = byte r in
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

(* an unsigned value with the sign bit set is garbage, and must be
   rejected here, before it reaches String.sub or List.init *)
let get_uint r =
  let n = get_raw r in
  if n < 0 then corrupt "negative unsigned varint before offset %d" r.pos;
  n

let get_int r =
  let z = get_raw r in
  (z lsr 1) lxor (- (z land 1))

let get_bool r =
  match byte r with
  | 0 -> false
  | 1 -> true
  | c -> corrupt "bad boolean byte %#x" c

let get_string r =
  let n = get_uint r in
  if n > remaining r then
    corrupt "string length %d runs past the payload" n;
  let s = String.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let get_list r get =
  let n = get_uint r in
  (* an element is at least one byte, so a count beyond the remaining
     payload is garbage — reject before allocating the list *)
  if n > remaining r then corrupt "count %d runs past the payload" n;
  List.init n (fun _ -> get r)

let get_enum r what table =
  let c = byte r in
  if c >= Array.length table then corrupt "unknown %s code %d" what c;
  table.(c)

let get_option r get = if get_bool r then Some (get r) else None

let finish r =
  if r.pos <> r.limit then corrupt "%d trailing payload bytes" (remaining r)

(* ----- container ----- *)

let header_len = 4 + 4 + 4 + 16

let seal ~magic ~version put =
  let payload = Buffer.create 4096 in
  put payload;
  let payload = Buffer.contents payload in
  let out = Buffer.create (header_len + String.length payload) in
  Buffer.add_string out magic;
  Buffer.add_int32_le out (Int32.of_int version);
  Buffer.add_int32_le out (Int32.of_int (String.length payload));
  Buffer.add_string out (Digest.string payload);
  Buffer.add_string out payload;
  Buffer.contents out

let unseal ~magic ~version get bytes =
  let size = String.length bytes in
  if size < header_len then corrupt "shorter than the header";
  if String.sub bytes 0 4 <> magic then corrupt "bad magic";
  let u32 off =
    Int32.to_int (String.get_int32_le bytes off) land 0xffff_ffff
  in
  let v = u32 4 in
  if v <> version then
    corrupt "format version %d (this reader understands %d)" v version;
  let len = u32 8 in
  if size <> header_len + len then
    corrupt "payload length %d does not match file size %d" len
      (size - header_len);
  if Digest.substring bytes header_len len <> String.sub bytes 12 16 then
    corrupt "checksum mismatch";
  let r = { buf = bytes; pos = header_len; limit = size } in
  let x = get r in
  finish r;
  x

(* ----- files ----- *)

(* unique temp names keep concurrent saves — parallel unit compiles in
   one process, or several processes sharing a cache directory — from
   clobbering each other's in-flight writes; rename is atomic either way *)
let tmp_seq = Atomic.make 0

let save ~path bytes =
  let tmp =
    Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_seq 1)
  in
  try
    (* an explicit close: a failed final flush (a full disk) must raise,
       and [with_open_bin]'s own close swallows errors *)
    Out_channel.with_open_bin tmp (fun oc ->
        output_string oc bytes;
        close_out oc);
    Sys.rename tmp path
  with e ->
    let bt = Printexc.get_raw_backtrace () in
    (try Sys.remove tmp with Sys_error _ -> ());
    Printexc.raise_with_backtrace e bt

let load path = In_channel.with_open_bin path In_channel.input_all
