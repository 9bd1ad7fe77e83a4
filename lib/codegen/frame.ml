(** Stack-frame layout.  All offsets are in words relative to the callee's
    stack pointer, which is decremented by [size] on entry:

    {v
      sp + size + i   incoming stack argument i        (caller's out area)
      ...             spill homes of unallocated vregs
      ...             contract slots (callee-saved registers and $ra)
      ...             around-call scratch slots
      sp + 0 ...      outgoing-argument build area
    v}

    A parameter that lives in memory and arrives on the stack keeps the
    incoming slot as its home, so no prologue copy is needed. *)

module Ir = Chow_ir.Ir
module Machine = Chow_machine.Machine
open Chow_core.Alloc_types

type t = {
  size : int;
  spill_home : int array;  (** sp-relative offset per vreg, or -1 *)
  contract_slot : int array;  (** offset per register, or -1 *)
  scratch_slot : int array;  (** offset per register, or -1 *)
}

let home t v =
  let off = t.spill_home.(v) in
  if off < 0 then invalid_arg "Frame.home: vreg has no spill home";
  off

let slot slots r =
  let off = slots.(r) in
  if off < 0 then raise Not_found;
  off

let contract_slot t r = slot t.contract_slot r
let scratch_slot t r = slot t.scratch_slot r

let build (res : result) =
  let p = res.r_proc in
  (* outgoing argument area: full arity of the widest call *)
  let max_args =
    Hashtbl.fold
      (fun _ plan acc -> max acc (List.length plan.cp_arg_locs))
      res.r_call_plans 0
  in
  let next = ref max_args in
  let alloc () =
    let off = !next in
    incr next;
    off
  in
  (* each register's slot is taken the first time it is met *)
  let take slots r = if slots.(r) < 0 then slots.(r) <- alloc () in
  let scratch_slot = Array.make Machine.nregs (-1) in
  Hashtbl.iter
    (fun _ plan -> List.iter (take scratch_slot) plan.cp_saves)
    res.r_call_plans;
  let contract_slot = Array.make Machine.nregs (-1) in
  List.iter (take contract_slot) res.r_contract_saves;
  let spill_home = Array.make p.Ir.nvregs (-1) in
  (* memory-resident vregs; stack-arriving parameters use incoming slots *)
  let stack_params =
    List.filteri
      (fun i _ -> match List.nth res.r_param_locs i with
        | Pstack -> true
        | Preg _ -> false)
      p.Ir.params
  in
  Array.iteri
    (fun v loc ->
      match loc with
      | Lstack when not (List.mem v stack_params) -> spill_home.(v) <- alloc ()
      | Lstack | Lreg _ -> ())
    res.r_assignment;
  let size = !next in
  (* incoming stack parameters live above the frame *)
  List.iteri
    (fun i v ->
      match (List.nth res.r_param_locs i, res.r_assignment.(v)) with
      | Pstack, Lstack -> spill_home.(v) <- size + i
      | (Pstack | Preg _), _ -> ())
    p.Ir.params;
  { size; spill_home; contract_slot; scratch_slot }

(** Incoming stack-argument offset for parameter position [i]. *)
let incoming_arg t i = t.size + i
