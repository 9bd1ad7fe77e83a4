(** Target assembly: a MIPS R2000-flavoured load/store instruction set.

    Addresses are in words.  Every load/store carries a {!tag} describing
    what kind of traffic it is, which is how the simulator reproduces the
    paper's "scalar loads/stores" metric (§8: loads and stores attributed to
    scalar variables and register saves/restores — exactly the traffic a
    perfect register allocator could remove).  What the simulator and the
    profiler read of a linked program besides its instructions — the
    procedure, contract and class of each pc — is {!Linked}'s. *)

module Ir = Chow_ir.Ir
module Machine = Chow_machine.Machine

type tag =
  | Tdata  (** globals and array elements: not removable by allocation *)
  | Tscalar  (** spill-home traffic of scalar locals and temporaries *)
  | Tsave
      (** contract save/restore: the shrink-wrapped entry/exit traffic a
          callee pays to honour its preservation contract *)
  | Tcallsave
      (** around-call save/restore: caller-side protection of live
          registers across one call site *)
  | Tstackarg  (** parameter passing through the stack *)

type label = int
(** Block label local to a procedure before linking; absolute instruction
    address afterwards. *)

type inst =
  | Li of Machine.reg * int
  | Lproc of Machine.reg * string  (** procedure address; linked to [Li] *)
  | Move of Machine.reg * Machine.reg
  | Neg of Machine.reg * Machine.reg
  | Not of Machine.reg * Machine.reg
  | Binop of Ir.binop * Machine.reg * Machine.reg * Machine.reg
  | Binopi of Ir.binop * Machine.reg * Machine.reg * int
  | Cmp of Ir.relop * Machine.reg * Machine.reg * Machine.reg
  | Cmpi of Ir.relop * Machine.reg * Machine.reg * int
  | Lw of Machine.reg * Machine.reg * int * tag  (** rd <- mem[rs+off] *)
  | Sw of Machine.reg * Machine.reg * int * tag  (** mem[rs+off] <- rs1 *)
  | B of Ir.relop * Machine.reg * Machine.reg * label
  | J of label
  | Jal of string  (** linked to [Jal_pc] *)
  | Jal_pc of int
  | Jalr of Machine.reg
  | Jr  (** return through [$ra] *)
  | Print of Machine.reg
  | Halt

(** Pre-link procedure body: instructions interleaved with block labels. *)
type item = Inst of inst | Label of label

type proc_code = { pc_name : string; pc_items : item list }

(** Register-preservation contract of a procedure, checked dynamically by
    the simulator: a call must leave every listed register unchanged. *)
type meta = { m_name : string; m_preserved : Machine.reg list }

type program = {
  code : inst array;
  entry : int;  (** pc of the startup stub *)
  proc_addrs : (string * int) list;
  metas : (int * meta) list;  (** keyed by procedure entry pc *)
  data_size : int;  (** words of static data *)
  data_init : (int * int) list;  (** address, initial value *)
}

(** Dense numbering of the traffic tags: data, scalar, save, callsave,
    stackarg. *)
let tag_index = function
  | Tdata -> 0
  | Tscalar -> 1
  | Tsave -> 2
  | Tcallsave -> 3
  | Tstackarg -> 4

let pp_tag ppf t =
  Format.pp_print_string ppf
    (match t with
    | Tdata -> "data"
    | Tscalar -> "scalar"
    | Tsave -> "save"
    | Tcallsave -> "callsave"
    | Tstackarg -> "stackarg")

let pp_inst ppf = function
  | Li (r, n) -> Format.fprintf ppf "li %a, %d" Machine.pp r n
  | Lproc (r, f) -> Format.fprintf ppf "la %a, &%s" Machine.pp r f
  | Move (d, s) -> Format.fprintf ppf "move %a, %a" Machine.pp d Machine.pp s
  | Neg (d, s) -> Format.fprintf ppf "neg %a, %a" Machine.pp d Machine.pp s
  | Not (d, s) -> Format.fprintf ppf "not %a, %a" Machine.pp d Machine.pp s
  | Binop (op, d, a, b) ->
      Format.fprintf ppf "%s %a, %a, %a" (Ir.string_of_binop op) Machine.pp d
        Machine.pp a Machine.pp b
  | Binopi (op, d, a, n) ->
      Format.fprintf ppf "%si %a, %a, %d" (Ir.string_of_binop op) Machine.pp d
        Machine.pp a n
  | Cmp (op, d, a, b) ->
      Format.fprintf ppf "set%s %a, %a, %a" (Ir.string_of_relop op) Machine.pp
        d Machine.pp a Machine.pp b
  | Cmpi (op, d, a, n) ->
      Format.fprintf ppf "set%si %a, %a, %d" (Ir.string_of_relop op)
        Machine.pp d Machine.pp a n
  | Lw (d, b, off, tag) ->
      Format.fprintf ppf "lw %a, %d(%a) # %a" Machine.pp d off Machine.pp b
        pp_tag tag
  | Sw (s, b, off, tag) ->
      Format.fprintf ppf "sw %a, %d(%a) # %a" Machine.pp s off Machine.pp b
        pp_tag tag
  | B (op, a, b, l) ->
      Format.fprintf ppf "b%s %a, %a, @%d" (Ir.string_of_relop op) Machine.pp
        a Machine.pp b l
  | J l -> Format.fprintf ppf "j @%d" l
  | Jal f -> Format.fprintf ppf "jal %s" f
  | Jal_pc pc -> Format.fprintf ppf "jal @%d" pc
  | Jalr r -> Format.fprintf ppf "jalr %a" Machine.pp r
  | Jr -> Format.pp_print_string ppf "jr $ra"
  | Print r -> Format.fprintf ppf "print %a" Machine.pp r
  | Halt -> Format.pp_print_string ppf "halt"

let pp_item ppf = function
  | Inst i -> Format.fprintf ppf "  %a" pp_inst i
  | Label l -> Format.fprintf ppf "L%d:" l

let pp_proc_code ppf pc =
  Format.fprintf ppf "@[<v>%s:@,%a@]" pc.pc_name
    (Chow_support.Pp.list ~sep:(fun ppf () -> Format.fprintf ppf "@,") pp_item)
    pc.pc_items
