(** Persistent compilation-unit artifacts; see the interface for the
    format.  The encoder and decoder below are exact mirrors over the
    {!Chow_support.Wire} primitives: unsigned varints for naturally
    non-negative quantities (registers, labels, counts, addresses),
    zigzag varints for immediates, and length-prefixed strings.  The
    decoder adds the range checks only this format knows — register
    numbers, enum codes, mask capacity — so corrupt input raises
    {!Corrupt} instead of mis-decoding. *)

module Ir = Chow_ir.Ir
module Machine = Chow_machine.Machine
module Usage = Chow_core.Usage
module Alloc_types = Chow_core.Alloc_types
module Wire = Chow_support.Wire

exception Corrupt = Wire.Corrupt

let corrupt = Wire.corrupt

let magic = "PWNO"
(* version 2: the around-call save/restore tag [Tcallsave] split out of
   [Tsave], shifting the tag enumeration *)
let format_version = 2

type proc_art = {
  pa_code : Asm.proc_code;
  pa_open : bool;
  pa_preserved : Machine.reg list;
  pa_usage : Usage.info option;
}

type t = {
  o_procs : proc_art list;
  o_data_base : int;
  o_data_size : int;
  o_data_init : (int * int) list;
  o_externs : string list;
}

(* ----- enumerations: a value's code is its index ----- *)

let binops = Ir.[| Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr |]
let relops = Ir.[| Eq; Ne; Lt; Le; Gt; Ge |]
let tags = Asm.[| Tdata; Tscalar; Tsave; Tcallsave; Tstackarg |]

(* ----- instructions ----- *)

let put_inst buf (i : Asm.inst) =
  let op = Wire.put_byte buf in
  let reg = Wire.put_uint buf in
  match i with
  | Asm.Li (r, n) ->
      op 0;
      reg r;
      Wire.put_int buf n
  | Asm.Lproc (r, f) ->
      op 1;
      reg r;
      Wire.put_string buf f
  | Asm.Move (d, s) ->
      op 2;
      reg d;
      reg s
  | Asm.Neg (d, s) ->
      op 3;
      reg d;
      reg s
  | Asm.Not (d, s) ->
      op 4;
      reg d;
      reg s
  | Asm.Binop (bop, d, a, b) ->
      op 5;
      Wire.put_enum buf binops bop;
      reg d;
      reg a;
      reg b
  | Asm.Binopi (bop, d, a, n) ->
      op 6;
      Wire.put_enum buf binops bop;
      reg d;
      reg a;
      Wire.put_int buf n
  | Asm.Cmp (rop, d, a, b) ->
      op 7;
      Wire.put_enum buf relops rop;
      reg d;
      reg a;
      reg b
  | Asm.Cmpi (rop, d, a, n) ->
      op 8;
      Wire.put_enum buf relops rop;
      reg d;
      reg a;
      Wire.put_int buf n
  | Asm.Lw (d, b, off, tag) ->
      op 9;
      reg d;
      reg b;
      Wire.put_int buf off;
      Wire.put_enum buf tags tag
  | Asm.Sw (s, b, off, tag) ->
      op 10;
      reg s;
      reg b;
      Wire.put_int buf off;
      Wire.put_enum buf tags tag
  | Asm.B (rop, a, b, l) ->
      op 11;
      Wire.put_enum buf relops rop;
      reg a;
      reg b;
      Wire.put_uint buf l
  | Asm.J l ->
      op 12;
      Wire.put_uint buf l
  | Asm.Jal f ->
      op 13;
      Wire.put_string buf f
  | Asm.Jal_pc pc ->
      op 14;
      Wire.put_uint buf pc
  | Asm.Jalr r ->
      op 15;
      reg r
  | Asm.Jr -> op 16
  | Asm.Print r ->
      op 17;
      reg r
  | Asm.Halt -> op 18

let get_reg r =
  let v = Wire.get_uint r in
  if v >= Machine.nregs then corrupt "register %d out of range" v;
  v

let get_inst r : Asm.inst =
  match Wire.byte r with
  | 0 ->
      let d = get_reg r in
      Asm.Li (d, Wire.get_int r)
  | 1 ->
      let d = get_reg r in
      Asm.Lproc (d, Wire.get_string r)
  | 2 ->
      let d = get_reg r in
      Asm.Move (d, get_reg r)
  | 3 ->
      let d = get_reg r in
      Asm.Neg (d, get_reg r)
  | 4 ->
      let d = get_reg r in
      Asm.Not (d, get_reg r)
  | 5 ->
      let bop = Wire.get_enum r "binop" binops in
      let d = get_reg r in
      let a = get_reg r in
      Asm.Binop (bop, d, a, get_reg r)
  | 6 ->
      let bop = Wire.get_enum r "binop" binops in
      let d = get_reg r in
      let a = get_reg r in
      Asm.Binopi (bop, d, a, Wire.get_int r)
  | 7 ->
      let rop = Wire.get_enum r "relop" relops in
      let d = get_reg r in
      let a = get_reg r in
      Asm.Cmp (rop, d, a, get_reg r)
  | 8 ->
      let rop = Wire.get_enum r "relop" relops in
      let d = get_reg r in
      let a = get_reg r in
      Asm.Cmpi (rop, d, a, Wire.get_int r)
  | 9 ->
      let d = get_reg r in
      let b = get_reg r in
      let off = Wire.get_int r in
      Asm.Lw (d, b, off, Wire.get_enum r "tag" tags)
  | 10 ->
      let s = get_reg r in
      let b = get_reg r in
      let off = Wire.get_int r in
      Asm.Sw (s, b, off, Wire.get_enum r "tag" tags)
  | 11 ->
      let rop = Wire.get_enum r "relop" relops in
      let a = get_reg r in
      let b = get_reg r in
      Asm.B (rop, a, b, Wire.get_uint r)
  | 12 -> Asm.J (Wire.get_uint r)
  | 13 -> Asm.Jal (Wire.get_string r)
  | 14 -> Asm.Jal_pc (Wire.get_uint r)
  | 15 -> Asm.Jalr (get_reg r)
  | 16 -> Asm.Jr
  | 17 -> Asm.Print (get_reg r)
  | 18 -> Asm.Halt
  | n -> corrupt "unknown opcode %d" n

let put_item buf = function
  | Asm.Label l ->
      Wire.put_byte buf 0;
      Wire.put_uint buf l
  | Asm.Inst i ->
      Wire.put_byte buf 1;
      put_inst buf i

let get_item r =
  match Wire.byte r with
  | 0 -> Asm.Label (Wire.get_uint r)
  | 1 -> Asm.Inst (get_inst r)
  | n -> corrupt "unknown item kind %d" n

(* ----- usage summaries ----- *)

let put_param_loc buf = function
  | Alloc_types.Pstack -> Wire.put_byte buf 0
  | Alloc_types.Preg reg ->
      Wire.put_byte buf 1;
      Wire.put_uint buf reg

let get_param_loc r =
  match Wire.byte r with
  | 0 -> Alloc_types.Pstack
  | 1 -> Alloc_types.Preg (get_reg r)
  | n -> corrupt "unknown param-loc kind %d" n

let put_usage buf (u : Usage.info) =
  Wire.put_uint buf Machine.nregs;
  Wire.put_list buf Wire.put_uint (Machine.regs_of_mask u.Usage.mask);
  Wire.put_list buf put_param_loc u.Usage.param_locs

let get_usage r : Usage.info =
  let cap = Wire.get_uint r in
  if cap <> Machine.nregs then corrupt "usage mask capacity %d" cap;
  let elems = Wire.get_list r Wire.get_uint in
  List.iter (fun e -> if e >= cap then corrupt "mask bit %d out of range" e) elems;
  let mask = Machine.mask_of_list elems in
  let param_locs = Wire.get_list r get_param_loc in
  { Usage.mask; param_locs }

(* ----- procedures and units ----- *)

let put_proc buf (p : proc_art) =
  Wire.put_string buf p.pa_code.Asm.pc_name;
  let flags =
    (if p.pa_open then 1 else 0) lor
    (match p.pa_usage with Some _ -> 2 | None -> 0)
  in
  Wire.put_byte buf flags;
  Wire.put_list buf Wire.put_uint p.pa_preserved;
  (match p.pa_usage with None -> () | Some u -> put_usage buf u);
  Wire.put_list buf put_item p.pa_code.Asm.pc_items

let get_proc r : proc_art =
  let name = Wire.get_string r in
  let flags = Wire.byte r in
  if flags land lnot 3 <> 0 then corrupt "unknown proc flags %#x" flags;
  let pa_open = flags land 1 <> 0 in
  let preserved = Wire.get_list r get_reg in
  let usage = if flags land 2 <> 0 then Some (get_usage r) else None in
  let items = Wire.get_list r get_item in
  {
    pa_code = { Asm.pc_name = name; pc_items = items };
    pa_open;
    pa_preserved = preserved;
    pa_usage = usage;
  }

let put_payload buf (t : t) =
  Wire.put_list buf put_proc t.o_procs;
  Wire.put_uint buf t.o_data_base;
  Wire.put_uint buf t.o_data_size;
  Wire.put_list buf
    (fun buf (addr, v) ->
      Wire.put_uint buf addr;
      Wire.put_int buf v)
    t.o_data_init;
  Wire.put_list buf Wire.put_string t.o_externs

let get_payload r : t =
  let procs = Wire.get_list r get_proc in
  let data_base = Wire.get_uint r in
  let data_size = Wire.get_uint r in
  let data_init =
    Wire.get_list r (fun r ->
        let addr = Wire.get_uint r in
        (addr, Wire.get_int r))
  in
  let externs = Wire.get_list r Wire.get_string in
  {
    o_procs = procs;
    o_data_base = data_base;
    o_data_size = data_size;
    o_data_init = data_init;
    o_externs = externs;
  }

(* ----- derived info and cross-checks ----- *)

let externs_of_procs (procs : Asm.proc_code list) : string list =
  let defined = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace defined p.Asm.pc_name ()) procs;
  let refs = Hashtbl.create 16 in
  List.iter
    (fun p ->
      List.iter
        (function
          | Asm.Inst (Asm.Jal f) | Asm.Inst (Asm.Lproc (_, f)) ->
              if not (Hashtbl.mem defined f) then Hashtbl.replace refs f ()
          | Asm.Inst _ | Asm.Label _ -> ())
        p.Asm.pc_items)
    procs;
  List.sort compare (Hashtbl.fold (fun f () acc -> f :: acc) refs [])

let contract_check (t : t) : (unit, string) result =
  let check_proc (p : proc_art) =
    let expected =
      match p.pa_usage with
      | Some u when not p.pa_open -> Usage.preserved_of_mask u.Usage.mask
      | Some _ | None -> Machine.callee_saved
    in
    if expected <> p.pa_preserved then
      Error
        (Printf.sprintf
           "%s: recorded contract does not match its usage mask"
           p.pa_code.Asm.pc_name)
    else Ok ()
  in
  List.fold_left
    (fun acc p -> match acc with Error _ -> acc | Ok () -> check_proc p)
    (Ok ()) t.o_procs

(* ----- container ----- *)

let write (t : t) : string =
  Wire.seal ~magic ~version:format_version (fun buf -> put_payload buf t)

let read (bytes : string) : t =
  Wire.unseal ~magic ~version:format_version get_payload bytes

let save ~path (t : t) = Wire.save ~path (write t)
let load path : t = read (Wire.load path)
