(** Register-usage summaries published by closed procedures (§2-§4).

    A summary says which physical registers a call to the procedure may
    modify — including everything its entire call tree modifies — and in
    which locations it expects its parameters.  Open procedures publish
    nothing; calls to them (and all indirect or external calls) are governed
    by the default linkage convention: all caller-saved and parameter
    registers are presumed clobbered, all callee-saved registers preserved. *)

module Machine = Chow_machine.Machine
module Ir = Chow_ir.Ir

type info = {
  mask : int;  (** registers possibly modified by calling this proc *)
  param_locs : Alloc_types.param_loc list;
}

type table = (string, info) Hashtbl.t

let create_table () : table = Hashtbl.create 16

let publish (table : table) name info = Hashtbl.replace table name info

let find (table : table) name = Hashtbl.find_opt table name

let fold f (table : table) init =
  Hashtbl.fold (fun name info acc -> f name info acc) table init

(** Clobber set under the default convention. *)
let default_clobber = Machine.mask_of_list (Machine.caller_saved @ Machine.param_regs)

(** [preserved_of_mask mask] is the registers a caller may assume survive a
    call to a procedure publishing [mask]: every conventional register the
    mask does not claim.  This is the single derivation of the
    save/restore contract from a usage summary; the pipeline's link-time
    cross-check re-runs it against the contract recorded in a unit
    artifact to prove the mask survived serialization. *)
let preserved_of_mask mask : Machine.reg list =
  List.filter
    (fun r -> not (Machine.mask_mem mask r))
    (Machine.caller_saved @ Machine.param_regs @ Machine.callee_saved)

(** [clobber_of_call table target] is the set of allocatable registers a
    call may modify, as seen by the caller. *)
let clobber_of_call (table : table) (target : Ir.call_target) =
  match target with
  | Ir.Indirect _ -> default_clobber
  | Ir.Direct f -> (
      match find table f with
      | Some info -> info.mask
      | None -> default_clobber)

(** Argument destinations for a call, under the callee's convention.
    Defaults: first [n_param_regs] arguments in the parameter registers,
    the rest on the stack. *)
let arg_locs_of_call (table : table) (config : Machine.config)
    (target : Ir.call_target) nargs : Alloc_types.param_loc list =
  let default () =
    List.init nargs (fun i ->
        if i < config.Machine.n_param_regs then
          Alloc_types.Preg (List.nth Machine.param_regs i)
        else Alloc_types.Pstack)
  in
  match target with
  | Ir.Indirect _ -> default ()
  | Ir.Direct f -> (
      match find table f with
      | Some info ->
          (* arity is checked by the front end, but be defensive *)
          if List.length info.param_locs = nargs then info.param_locs
          else default ()
      | None -> default ())
