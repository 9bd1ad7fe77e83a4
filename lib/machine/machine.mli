(** Machine model: a MIPS R2000-flavoured register file and the software
    register-usage conventions of the paper (§2, §8).

    The allocatable set mirrors the paper's description: 11 caller-saved
    registers, 9 callee-saved registers, and 4 parameter registers that act
    as caller-saved when not carrying parameters (24 allocatable in all; the
    paper's "20" excludes the parameter registers from its count).  Table 2
    is reproduced by restricting the allocatable set with {!restrict}.

    Non-allocatable registers: [zero], the return-value register [v0], the
    linkage register [ra], the stack pointer [sp], and three assembler
    scratch registers [x0]-[x2] used by spill code. *)

type reg = int

(** Non-allocatable registers with a fixed role. *)

val zero : reg
val v0 : reg  (** return value *)

val sp : reg
val ra : reg  (** linkage *)

val x0 : reg  (** assembler scratch, spill code *)

val x1 : reg
val x2 : reg

val nregs : int  (** registers in the file; register-mask width *)

(** The three allocatable classes, in register-file order. *)

val param_regs : reg list  (** [a0..a3] *)

val caller_saved : reg list  (** [t0..t10] *)

val callee_saved : reg list  (** [s0..s8] *)

val a0 : reg
val t0 : reg
val s0 : reg

type reg_class = Caller_saved | Callee_saved | Param

(** [class_of r] raises [Invalid_argument] on a non-allocatable
    register. *)
val class_of : reg -> reg_class

val is_allocatable : reg -> bool
val name : reg -> string
val pp : Format.formatter -> reg -> unit

(** The register file configuration handed to the allocator.  [allocatable]
    lists the registers the colorer may assign, in preference order;
    parameter registers always keep their role in the default calling
    convention even when excluded from [allocatable]. *)
type config = {
  allocatable : reg list;
  n_param_regs : int;  (** leading prefix of [param_regs] used for linkage *)
}

val full : config
(** Full machine: Table 1 configurations. *)

val seven_caller_saved : config
(** Table 2, column D: only 7 caller-saved registers available. *)

val seven_callee_saved : config
(** Table 2, column E: only 7 callee-saved registers available. *)

(** [restrict ~n_caller ~n_callee ~n_param] builds arbitrary subsets for
    ablation experiments; raises [Invalid_argument] beyond the file
    sizes. *)
val restrict : n_caller:int -> n_callee:int -> n_param:int -> config

(** {2 Register sets}

    A set of registers is an immediate [int] mask: bit [r] stands for
    register [r], and [nregs] fits an OCaml int. *)

val mask_of_list : reg list -> int

(** [mask_mem m r] is [true] iff register [r] is in mask [m]. *)
val mask_mem : int -> reg -> bool

(** [regs_of_mask m] lists the registers of [m] in increasing order. *)
val regs_of_mask : int -> reg list

(** Prints [{$t0, $t1}]. *)
val pp_mask : Format.formatter -> int -> unit

(** Cost model (memory operations are what the paper's metrics count). *)

val load_cost : int

val store_cost : int
val move_cost : int
