(** Intermediate representation: a control-flow graph of basic blocks over an
    unlimited supply of virtual registers, in the spirit of the paper's Ucode
    after expansion to a load/store form.

    Scalar locals, parameters and expression temporaries are virtual
    registers ([vreg]); the register allocator later maps each one to a
    physical register or to a stack home.  Globals (scalars and arrays) live
    in static memory and are accessed through {!mem} addressing modes. *)

type vreg = int
(** Virtual register index, dense within a procedure. *)

type label = int
(** Basic-block index, dense within a procedure. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr

type relop = Eq | Ne | Lt | Le | Gt | Ge

type operand = Reg of vreg | Imm of int

(** Static-memory addressing modes.  [Global_word (g, k)] is the scalar (or
    fixed element [k]) of global [g]; [Global_index (g, idx)] is [g[idx]]. *)
type mem = Global_word of string * int | Global_index of string * operand

type call_target = Direct of string | Indirect of vreg

type inst =
  | Li of vreg * int  (** load constant *)
  | Mov of vreg * vreg
  | Neg of vreg * operand
  | Not of vreg * operand  (** logical not: 1 if zero else 0 *)
  | Binop of binop * vreg * operand * operand
  | Cmp of relop * vreg * operand * operand  (** materialize 0/1 *)
  | Load of vreg * mem
  | Store of mem * operand
  | Addr_of_proc of vreg * string
      (** take the address of a procedure; marks it indirectly callable *)
  | Call of { target : call_target; args : operand list; ret : vreg option }
  | Print of operand  (** output intrinsic; the observable behaviour *)

type terminator =
  | Jump of label
  | Cbranch of relop * operand * operand * label * label
      (** if [a relop b] then first label else second *)
  | Ret of operand option

type block = { id : label; mutable insts : inst list; mutable term : terminator }

(** How a virtual register came to exist; used for diagnostics and for
    classifying the loads/stores of unallocated registers. *)
type vreg_kind = Vlocal of string | Vparam of string * int | Vtemp

type proc = {
  pname : string;
  params : vreg list;  (** parameter vregs, in declaration order *)
  mutable blocks : block array;  (** index = label; block 0 is the entry *)
  mutable nvregs : int;
  mutable vreg_kinds : vreg_kind array;
  exported : bool;
      (** visible outside the compilation unit, hence open for IPRA *)
}

type global_def = Gscalar of int | Garray of int * int list
(** [Gscalar init] or [Garray (size, initial_prefix)] *)

type prog = {
  procs : proc list;
  globals : (string * global_def) list;
  externs : string list;  (** declared but defined in another module *)
}

let entry_label = 0

let block p l = p.blocks.(l)
let nblocks p = Array.length p.blocks

let find_proc prog name = List.find_opt (fun p -> p.pname = name) prog.procs

(** {2 Uses and definitions} *)

(** [iter_inst_defs f i], [iter_inst_uses f i] and [iter_term_uses f t]
    apply [f] to each vreg an instruction defines or uses, or a
    terminator uses, in order, without building a list: the
    per-instruction walks of the allocator's analyses use them, and the
    list forms below are built from them. *)
let iter_operand f = function Reg v -> f v | Imm _ -> ()

let iter_inst_defs f = function
  | Li (d, _)
  | Mov (d, _)
  | Neg (d, _)
  | Not (d, _)
  | Binop (_, d, _, _)
  | Cmp (_, d, _, _)
  | Load (d, _)
  | Addr_of_proc (d, _)
  | Call { ret = Some d; _ } ->
      f d
  | Call { ret = None; _ } | Store _ | Print _ -> ()

let iter_inst_uses f = function
  | Li _ | Addr_of_proc _ | Load (_, Global_word _) -> ()
  | Mov (_, s) -> f s
  | Neg (_, o) | Not (_, o) | Print o | Load (_, Global_index (_, o)) ->
      iter_operand f o
  | Binop (_, _, a, b) | Cmp (_, _, a, b) ->
      iter_operand f a;
      iter_operand f b
  | Store (m, o) ->
      (match m with Global_index (_, i) -> iter_operand f i | Global_word _ -> ());
      iter_operand f o
  | Call { target; args; _ } ->
      (match target with Indirect v -> f v | Direct _ -> ());
      List.iter (iter_operand f) args

let iter_term_uses f = function
  | Jump _ | Ret None -> ()
  | Cbranch (_, a, b, _, _) ->
      iter_operand f a;
      iter_operand f b
  | Ret (Some o) -> iter_operand f o

let list_of_iter iter x =
  let acc = ref [] in
  iter (fun v -> acc := v :: !acc) x;
  List.rev !acc

let inst_defs = list_of_iter iter_inst_defs
let inst_uses = list_of_iter iter_inst_uses
let term_uses = list_of_iter iter_term_uses

let successors = function
  | Jump l -> [ l ]
  | Cbranch (_, _, _, l1, l2) -> if l1 = l2 then [ l1 ] else [ l1; l2 ]
  | Ret _ -> []

let is_exit b = match b.term with Ret _ -> true | Jump _ | Cbranch _ -> false

(** Direct call sites of a procedure, with duplicates. *)
let direct_callees p =
  Array.to_list p.blocks
  |> List.concat_map (fun b ->
         List.filter_map
           (function
             | Call { target = Direct f; _ } -> Some f
             | Call { target = Indirect _; _ }
             | Li _ | Mov _ | Neg _ | Not _ | Binop _ | Cmp _ | Load _
             | Store _ | Addr_of_proc _ | Print _ ->
                 None)
           b.insts)

(** Procedures whose address is taken anywhere in the program. *)
let address_taken prog =
  List.concat_map
    (fun p ->
      Array.to_list p.blocks
      |> List.concat_map (fun b ->
             List.filter_map
               (function
                 | Addr_of_proc (_, f) -> Some f
                 | Li _ | Mov _ | Neg _ | Not _ | Binop _ | Cmp _ | Load _
                 | Store _ | Call _ | Print _ ->
                     None)
               b.insts))
    prog.procs

let has_indirect_call p =
  Array.exists
    (fun b ->
      List.exists
        (function
          | Call { target = Indirect _; _ } -> true
          | Call { target = Direct _; _ }
          | Li _ | Mov _ | Neg _ | Not _ | Binop _ | Cmp _ | Load _ | Store _
          | Addr_of_proc _ | Print _ ->
              false)
        b.insts)
    p.blocks

(** {2 Substitution} *)

let subst_operand ~from_v ~to_v = function
  | Reg v when v = from_v -> Reg to_v
  | (Reg _ | Imm _) as o -> o

let subst_mem ~from_v ~to_v = function
  | Global_word _ as m -> m
  | Global_index (g, o) -> Global_index (g, subst_operand ~from_v ~to_v o)

(** [subst_inst ~from_v ~to_v i] renames every occurrence (uses and defs)
    of [from_v] to [to_v]. *)
let subst_inst ~from_v ~to_v inst =
  let v x = if x = from_v then to_v else x in
  let o = subst_operand ~from_v ~to_v in
  let m = subst_mem ~from_v ~to_v in
  match inst with
  | Li (d, n) -> Li (v d, n)
  | Mov (d, s) -> Mov (v d, v s)
  | Neg (d, x) -> Neg (v d, o x)
  | Not (d, x) -> Not (v d, o x)
  | Binop (op, d, a, b) -> Binop (op, v d, o a, o b)
  | Cmp (op, d, a, b) -> Cmp (op, v d, o a, o b)
  | Load (d, mm) -> Load (v d, m mm)
  | Store (mm, x) -> Store (m mm, o x)
  | Addr_of_proc (d, f) -> Addr_of_proc (v d, f)
  | Call { target; args; ret } ->
      let target =
        match target with
        | Direct _ -> target
        | Indirect t -> Indirect (v t)
      in
      Call { target; args = List.map o args; ret = Option.map v ret }
  | Print x -> Print (o x)

let subst_term ~from_v ~to_v = function
  | Jump l -> Jump l
  | Cbranch (op, a, b, l1, l2) ->
      Cbranch
        ( op,
          subst_operand ~from_v ~to_v a,
          subst_operand ~from_v ~to_v b,
          l1,
          l2 )
  | Ret o -> Ret (Option.map (subst_operand ~from_v ~to_v) o)

(** [retarget_term ~from_l ~to_l t] redirects control-flow edges. *)
let retarget_term ~from_l ~to_l = function
  | Jump l -> Jump (if l = from_l then to_l else l)
  | Cbranch (op, a, b, l1, l2) ->
      Cbranch
        ( op,
          a,
          b,
          (if l1 = from_l then to_l else l1),
          if l2 = from_l then to_l else l2 )
  | Ret _ as t -> t

(** {2 Printing} *)

let string_of_binop = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"

let string_of_relop = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let pp_vreg ppf v = Format.fprintf ppf "%%%d" v

let pp_operand ppf = function
  | Reg v -> pp_vreg ppf v
  | Imm n -> Format.pp_print_int ppf n

let pp_mem ppf = function
  | Global_word (g, 0) -> Format.fprintf ppf "@%s" g
  | Global_word (g, k) -> Format.fprintf ppf "@%s+%d" g k
  | Global_index (g, o) -> Format.fprintf ppf "@%s[%a]" g pp_operand o

let pp_inst ppf = function
  | Li (d, n) -> Format.fprintf ppf "%a <- li %d" pp_vreg d n
  | Mov (d, s) -> Format.fprintf ppf "%a <- %a" pp_vreg d pp_vreg s
  | Neg (d, o) -> Format.fprintf ppf "%a <- neg %a" pp_vreg d pp_operand o
  | Not (d, o) -> Format.fprintf ppf "%a <- not %a" pp_vreg d pp_operand o
  | Binop (op, d, a, b) ->
      Format.fprintf ppf "%a <- %s %a, %a" pp_vreg d (string_of_binop op)
        pp_operand a pp_operand b
  | Cmp (op, d, a, b) ->
      Format.fprintf ppf "%a <- set%s %a, %a" pp_vreg d (string_of_relop op)
        pp_operand a pp_operand b
  | Load (d, m) -> Format.fprintf ppf "%a <- load %a" pp_vreg d pp_mem m
  | Store (m, o) -> Format.fprintf ppf "store %a -> %a" pp_operand o pp_mem m
  | Addr_of_proc (d, f) -> Format.fprintf ppf "%a <- addr &%s" pp_vreg d f
  | Call { target; args; ret } ->
      let pp_target ppf = function
        | Direct f -> Format.pp_print_string ppf f
        | Indirect v -> Format.fprintf ppf "*%a" pp_vreg v
      in
      (match ret with
      | Some d -> Format.fprintf ppf "%a <- call %a(" pp_vreg d pp_target target
      | None -> Format.fprintf ppf "call %a(" pp_target target);
      Format.fprintf ppf "%a)"
        (Chow_support.Pp.list ~sep:Chow_support.Pp.comma pp_operand)
        args
  | Print o -> Format.fprintf ppf "print %a" pp_operand o

let pp_terminator ppf = function
  | Jump l -> Format.fprintf ppf "jump L%d" l
  | Cbranch (op, a, b, l1, l2) ->
      Format.fprintf ppf "br%s %a, %a -> L%d | L%d" (string_of_relop op)
        pp_operand a pp_operand b l1 l2
  | Ret (Some o) -> Format.fprintf ppf "ret %a" pp_operand o
  | Ret None -> Format.pp_print_string ppf "ret"

let pp_block ppf b =
  Format.fprintf ppf "@[<v 2>L%d:" b.id;
  List.iter (fun i -> Format.fprintf ppf "@,%a" pp_inst i) b.insts;
  Format.fprintf ppf "@,%a@]" pp_terminator b.term

let pp_proc ppf p =
  Format.fprintf ppf "@[<v>proc %s(%a)%s {@," p.pname
    (Chow_support.Pp.list ~sep:Chow_support.Pp.comma pp_vreg)
    p.params
    (if p.exported then " export" else "");
  Array.iter (fun b -> Format.fprintf ppf "%a@," pp_block b) p.blocks;
  Format.fprintf ppf "}@]"

let pp_prog ppf prog =
  List.iter (fun (g, def) ->
      match def with
      | Gscalar init -> Format.fprintf ppf "global %s = %d@." g init
      | Garray (n, init) ->
          Format.fprintf ppf "global %s[%d] = [%a]@." g n
            (Chow_support.Pp.list ~sep:Chow_support.Pp.comma
               Format.pp_print_int)
            init)
    prog.globals;
  List.iter (fun e -> Format.fprintf ppf "extern %s@." e) prog.externs;
  List.iter (fun p -> Format.fprintf ppf "%a@." pp_proc p) prog.procs
