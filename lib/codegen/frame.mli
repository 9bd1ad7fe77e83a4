(** Stack-frame layout.  Offsets are in words relative to the callee's
    stack pointer, which drops by [size] on entry:

    {v
      sp + size + i   incoming stack argument i      (caller's out area)
      ...             spill homes of memory-resident vregs
      ...             contract slots (callee-saved registers and $ra)
      ...             around-call scratch slots
      sp + 0 ...      outgoing-argument build area
    v}

    A parameter that lives in memory and arrives on the stack keeps its
    incoming slot as its home, so no prologue copy is needed. *)

type t = {
  size : int;
  spill_home : int array;  (** offset per vreg, [-1] when it has none *)
  contract_slot : int array;  (** offset per register, [-1] for none *)
  scratch_slot : int array;  (** offset per register, [-1] for none *)
}

val build : Chow_core.Alloc_types.result -> t

(** Spill-home offset of a memory-resident vreg; raises otherwise. *)
val home : t -> Chow_ir.Ir.vreg -> int

(** The contract (entry/exit) and around-call save slots of a register;
    raise [Not_found] when the frame has none. *)
val contract_slot : t -> Chow_machine.Machine.reg -> int
val scratch_slot : t -> Chow_machine.Machine.reg -> int

(** Incoming stack-argument offset for parameter position [i]. *)
val incoming_arg : t -> int -> int
