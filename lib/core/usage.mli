(** Register-usage summaries published by closed procedures (§2-§4).

    A summary says which physical registers a call to the procedure may
    modify — including everything its entire call tree modifies — and
    where it expects its parameters.  Open procedures publish nothing;
    calls to them (and all indirect or external calls) are governed by the
    default linkage convention. *)

module Machine = Chow_machine.Machine

type info = {
  mask : int;
      (** registers possibly modified by calling this proc, as a
          {!Machine.mask_of_list} mask *)
  param_locs : Alloc_types.param_loc list;
}

type table

val create_table : unit -> table
val publish : table -> string -> info -> unit
val find : table -> string -> info option

(** [fold f table init] folds over every published summary, in no
    particular order. *)
val fold : (string -> info -> 'a -> 'a) -> table -> 'a -> 'a

(** All caller-saved and parameter registers: what an unknown callee may
    clobber. *)
val default_clobber : int

(** [preserved_of_mask mask] is the registers a caller may assume survive a
    call to a procedure publishing [mask]: the conventional registers
    (caller-saved, parameter, callee-saved, in that order) minus the
    mask.  The canonical mask-to-contract derivation, shared by the
    pipeline and the unit-artifact cross-check. *)
val preserved_of_mask : int -> Machine.reg list

(** The allocatable registers a call may modify, as seen by the caller:
    the callee's published mask, or {!default_clobber} when unknown. *)
val clobber_of_call : table -> Chow_ir.Ir.call_target -> int

(** Argument destinations under the callee's convention; defaults to the
    first [n_param_regs] in parameter registers and the rest on the
    stack. *)
val arg_locs_of_call :
  table ->
  Machine.config ->
  Chow_ir.Ir.call_target ->
  int ->
  Alloc_types.param_loc list
