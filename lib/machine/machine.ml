(** Machine model: a MIPS R2000-flavoured register file and the software
    register-usage conventions of the paper (§2, §8).

    The allocatable set mirrors the paper's description: 11 caller-saved
    registers, 9 callee-saved registers, and 4 parameter registers that act
    as caller-saved when not carrying parameters (24 allocatable in all; the
    paper's "20" excludes the parameter registers from its count).  Table 2
    is reproduced by restricting the allocatable set with {!restrict}.

    Non-allocatable registers: [zero], the return-value register [v0], the
    linkage register [ra], the stack pointer [sp], and three assembler
    scratch registers [x0]-[x2] used by spill code, exactly as the paper
    notes that "the function return registers and linkage registers ...
    cannot be allocated inter-procedurally". *)

type reg = int

let zero = 0
let v0 = 1
let sp = 2
let ra = 3
let x0 = 4
let x1 = 5
let x2 = 6
let a0 = 7 (* a0..a3 = 7..10 *)
let t0 = 11 (* t0..t10 = 11..21 *)
let s0 = 22 (* s0..s8 = 22..30 *)

let nregs = 31

let param_regs = [ a0; a0 + 1; a0 + 2; a0 + 3 ]
let caller_saved = List.init 11 (fun i -> t0 + i)
let callee_saved = List.init 9 (fun i -> s0 + i)

type reg_class = Caller_saved | Callee_saved | Param

let class_of r =
  if r >= t0 && r < t0 + 11 then Caller_saved
  else if r >= s0 && r < s0 + 9 then Callee_saved
  else if r >= a0 && r < a0 + 4 then Param
  else invalid_arg "Machine.class_of: not an allocatable register"

let is_allocatable r = r >= a0 && r <= s0 + 8

let name r =
  if r = zero then "$zero"
  else if r = v0 then "$v0"
  else if r = sp then "$sp"
  else if r = ra then "$ra"
  else if r >= x0 && r <= x2 then Printf.sprintf "$x%d" (r - x0)
  else if r >= a0 && r < a0 + 4 then Printf.sprintf "$a%d" (r - a0)
  else if r >= t0 && r < t0 + 11 then Printf.sprintf "$t%d" (r - t0)
  else if r >= s0 && r < s0 + 9 then Printf.sprintf "$s%d" (r - s0)
  else Printf.sprintf "$r%d" r

let pp ppf r = Format.pp_print_string ppf (name r)

(** The register file configuration handed to the allocator.  [allocatable]
    lists the registers the colorer may assign, in preference order;
    parameter registers always keep their role in the default calling
    convention even when excluded from [allocatable]. *)
type config = {
  allocatable : reg list;
  n_param_regs : int;  (** leading prefix of [param_regs] used for linkage *)
}

(** Full machine: Table 1 configurations. *)
let full =
  { allocatable = caller_saved @ param_regs @ callee_saved; n_param_regs = 4 }

(** Table 2, column D: only 7 caller-saved registers available. *)
let seven_caller_saved =
  {
    allocatable = List.filteri (fun i _ -> i < 7) caller_saved;
    n_param_regs = 4;
  }

(** Table 2, column E: only 7 callee-saved registers available. *)
let seven_callee_saved =
  {
    allocatable = List.filteri (fun i _ -> i < 7) callee_saved;
    n_param_regs = 4;
  }

(** [restrict n_caller n_callee n_param] builds arbitrary subsets for
    ablation experiments. *)
let restrict ~n_caller ~n_callee ~n_param =
  if n_caller > 11 || n_callee > 9 || n_param > 4 then
    invalid_arg "Machine.restrict";
  {
    allocatable =
      List.filteri (fun i _ -> i < n_caller) caller_saved
      @ List.filteri (fun i _ -> i < n_param) param_regs
      @ List.filteri (fun i _ -> i < n_callee) callee_saved;
    n_param_regs = 4;
  }

(** Register sets as immediate masks: bit [r] stands for register [r]
    ([nregs] fits an OCaml int).  Usage masks, clobber sets and the §5
    attributes are all such masks. *)
let mask_of_list rs = List.fold_left (fun m r -> m lor (1 lsl r)) 0 rs

let mask_mem m r = m land (1 lsl r) <> 0
let regs_of_mask m = List.filter (mask_mem m) (List.init nregs Fun.id)

let pp_mask ppf m =
  let sep ppf () = Format.pp_print_string ppf ", " in
  Format.fprintf ppf "{%a}" (Chow_support.Pp.list ~sep pp) (regs_of_mask m)

(** Cost model (memory operations are what the paper's metrics count). *)
let load_cost = 1
let store_cost = 1
let move_cost = 1
