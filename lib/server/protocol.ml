(** See protocol.mli for the wire contract. *)

module Wire = Chow_support.Wire

exception Malformed = Wire.Corrupt

let version = 4
let max_frame = 16 * 1024 * 1024

let malformed = Wire.corrupt

type action = Build | Run | Profile

type request =
  | Compile of {
      id : int;
      action : action;
      srcs : string list;
      o3 : bool;
      shrinkwrap : bool;
      global_promo : bool;
      alloc : string;  (** allocation strategy, --alloc spelling *)
      fuel : int option;
      priority : int;
    }
  | Ping
  | Stats
  | Shutdown
  | Dump
  | Health
  | Metrics_text

type reply =
  | Done of {
      text : string;
      counters : (string * int) list;
      queue_wait_ns : int;
      service_ns : int;
    }
  | Error of { kind : string; message : string }
  | Busy
  | Pong
  | Stats_reply of (string * int) list
  | Bye
  | Dump_reply of string
  | Health_reply of { ready : bool; checks : (string * bool * string) list }
  | Metrics_reply of string

(* ----- payload: version byte, tag, then Wire-encoded fields ----- *)

let reader_of payload tag_kind =
  let r = Wire.reader payload in
  let v = Wire.byte r in
  if v <> version then malformed "%s: protocol version %d, expected %d" tag_kind v version;
  r

(* ----- requests ----- *)

let actions = [| Build; Run; Profile |]

let encode_request req =
  let b = Buffer.create 256 in
  Wire.put_byte b version;
  (match req with
  | Ping -> Wire.put_byte b 0
  | Compile
      { id; action; srcs; o3; shrinkwrap; global_promo; alloc; fuel; priority }
    ->
      Wire.put_byte b 1;
      Wire.put_int b id;
      Wire.put_enum b actions action;
      Wire.put_list b Wire.put_string srcs;
      Wire.put_bool b o3;
      Wire.put_bool b shrinkwrap;
      Wire.put_bool b global_promo;
      Wire.put_string b alloc;
      Wire.put_option b Wire.put_int fuel;
      Wire.put_int b priority
  | Stats -> Wire.put_byte b 2
  | Shutdown -> Wire.put_byte b 3
  | Dump -> Wire.put_byte b 4
  | Health -> Wire.put_byte b 5
  | Metrics_text -> Wire.put_byte b 6);
  Buffer.contents b

let decode_request payload =
  let r = reader_of payload "request" in
  let req =
    match Wire.byte r with
    | 0 -> Ping
    | 1 ->
        let id = Wire.get_int r in
        let action = Wire.get_enum r "action" actions in
        let srcs = Wire.get_list r Wire.get_string in
        let o3 = Wire.get_bool r in
        let shrinkwrap = Wire.get_bool r in
        let global_promo = Wire.get_bool r in
        let alloc = Wire.get_string r in
        let fuel = Wire.get_option r Wire.get_int in
        let priority = Wire.get_int r in
        Compile
          {
            id;
            action;
            srcs;
            o3;
            shrinkwrap;
            global_promo;
            alloc;
            fuel;
            priority;
          }
    | 2 -> Stats
    | 3 -> Shutdown
    | 4 -> Dump
    | 5 -> Health
    | 6 -> Metrics_text
    | t -> malformed "unknown request tag %#x" t
  in
  Wire.finish r;
  req

(* ----- replies ----- *)

let put_counter b (name, v) =
  Wire.put_string b name;
  Wire.put_int b v

let get_counter r =
  let name = Wire.get_string r in
  let v = Wire.get_int r in
  (name, v)

let encode_reply reply =
  let b = Buffer.create 256 in
  Wire.put_byte b version;
  (match reply with
  | Done { text; counters; queue_wait_ns; service_ns } ->
      Wire.put_byte b 0;
      Wire.put_string b text;
      Wire.put_list b put_counter counters;
      Wire.put_int b queue_wait_ns;
      Wire.put_int b service_ns
  | Error { kind; message } ->
      Wire.put_byte b 1;
      Wire.put_string b kind;
      Wire.put_string b message
  | Busy -> Wire.put_byte b 2
  | Pong -> Wire.put_byte b 3
  | Stats_reply counters ->
      Wire.put_byte b 4;
      Wire.put_list b put_counter counters
  | Bye -> Wire.put_byte b 5
  | Dump_reply json ->
      Wire.put_byte b 6;
      Wire.put_string b json
  | Health_reply { ready; checks } ->
      Wire.put_byte b 7;
      Wire.put_bool b ready;
      Wire.put_list b
        (fun b (name, ok, detail) ->
          Wire.put_string b name;
          Wire.put_bool b ok;
          Wire.put_string b detail)
        checks
  | Metrics_reply page ->
      Wire.put_byte b 8;
      Wire.put_string b page);
  Buffer.contents b

let decode_reply payload =
  let r = reader_of payload "reply" in
  let reply =
    match Wire.byte r with
    | 0 ->
        let text = Wire.get_string r in
        let counters = Wire.get_list r get_counter in
        let queue_wait_ns = Wire.get_int r in
        let service_ns = Wire.get_int r in
        Done { text; counters; queue_wait_ns; service_ns }
    | 1 ->
        let kind = Wire.get_string r in
        let message = Wire.get_string r in
        Error { kind; message }
    | 2 -> Busy
    | 3 -> Pong
    | 4 -> Stats_reply (Wire.get_list r get_counter)
    | 5 -> Bye
    | 6 -> Dump_reply (Wire.get_string r)
    | 7 ->
        let ready = Wire.get_bool r in
        let checks =
          Wire.get_list r (fun r ->
              let name = Wire.get_string r in
              let ok = Wire.get_bool r in
              let detail = Wire.get_string r in
              (name, ok, detail))
        in
        Health_reply { ready; checks }
    | 8 -> Metrics_reply (Wire.get_string r)
    | t -> malformed "unknown reply tag %#x" t
  in
  Wire.finish r;
  reply

(* ----- framing ----- *)

let rec really_write fd buf ofs len =
  if len > 0 then begin
    let n =
      try Unix.write fd buf ofs len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    really_write fd buf (ofs + n) (len - n)
  end

let write_frame fd payload =
  let n = String.length payload in
  if n > max_frame then malformed "frame of %d bytes exceeds max %d" n max_frame;
  let buf = Bytes.create (4 + n) in
  Bytes.set_int32_be buf 0 (Int32.of_int n);
  Bytes.blit_string payload 0 buf 4 n;
  really_write fd buf 0 (4 + n)

(* [`Eof] only at offset 0 — a clean close between frames; mid-message
   truncation is malformed *)
let read_exact fd buf len =
  let rec go ofs =
    if ofs >= len then `Ok
    else
      match Unix.read fd buf ofs (len - ofs) with
      | 0 -> if ofs = 0 then `Eof else malformed "stream truncated mid-frame"
      | n -> go (ofs + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ofs
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
          if ofs = 0 then `Eof else malformed "connection reset mid-frame"
  in
  go 0

let read_frame fd =
  let header = Bytes.create 4 in
  match read_exact fd header 4 with
  | `Eof -> None
  | `Ok ->
      let n = Int32.to_int (Bytes.get_int32_be header 0) land 0xffff_ffff in
      if n > max_frame then
        malformed "frame claims %d bytes, max is %d" n max_frame;
      let payload = Bytes.create n in
      (match read_exact fd payload n with
      | `Ok -> Some (Bytes.unsafe_to_string payload)
      | `Eof -> if n = 0 then Some "" else malformed "stream truncated mid-frame")

let send_request fd req = write_frame fd (encode_request req)
let send_reply fd reply = write_frame fd (encode_reply reply)
let recv_request fd = Option.map decode_request (read_frame fd)
let recv_reply fd = Option.map decode_reply (read_frame fd)
