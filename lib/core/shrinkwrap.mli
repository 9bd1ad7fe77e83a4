(** Shrink-wrapping of callee-saved register saves/restores (paper §5).

    Given the per-block APP attribute — the blocks where each register
    carries a value that must be protected — decides where to save (block
    entries) and restore (block exits) so the code executes only on paths
    that need it.  Implements the paper's equations (3.1)-(3.6), the
    loop-propagation rule, and the APP range-extension iteration, driven by
    an explicit balance checker; registers that cannot be balanced fall
    back to entry/exit placement.  See the implementation header for the
    full account, including the correction of the paper's (3.3) typo.

    Every attribute is one immediate register mask per block, solved by
    the module's own ∩ fixpoints.  {!place} grows the APP array it is
    given; the {!compute} adapter for callers holding bitsets reads its
    APP and leaves it unchanged. *)

module Bitset = Chow_support.Bitset
module Machine = Chow_machine.Machine
module Ir = Chow_ir.Ir
module Cfg = Chow_ir.Cfg

type placement = {
  save_at : (Ir.label * Machine.reg) list;  (** save at entry of block *)
  restore_at : (Ir.label * Machine.reg) list;  (** restore at exit of block *)
  entry_save : Machine.reg list;
      (** registers whose save landed at the procedure entry — §6 uses this
          to decide which saves propagate up the call graph *)
  iterations : int;  (** range-extension rounds performed *)
}

(** [place cfg loops ~app candidates] shrink-wraps the given registers.
    [app] holds one register mask per block ({!Machine.mask_of_list});
    loop propagation and range extension grow it in place. *)
val place :
  Cfg.t -> Chow_ir.Loops.t -> app:int array -> Machine.reg list -> placement

(** [compute cfg loops ~app candidates] is {!place} over APP given as one
    register bitset per block.  [app] is read, not modified. *)
val compute :
  Cfg.t ->
  Chow_ir.Loops.t ->
  app:Bitset.t array ->
  Machine.reg list ->
  placement

(** The ordinary convention — save at entry, restore at every exit — used
    when shrink-wrap is disabled and as the sound fallback. *)
val entry_exit_placement : Cfg.t -> Machine.reg list -> placement

(** {2 Exposed internals}

    The pieces below are the building blocks of {!place}, exposed so that
    tests and the Figure-2 bench can exercise the {e literal} equations and
    the balance checker separately.  Every set is a register mask per
    block. *)

(** A solved attribute: its value at each block's entry and exit. *)
type flow = { ins : int array; outs : int array }

(** Equations (3.1)-(3.2): ANTIN/ANTOUT. *)
val solve_ant : Cfg.t -> int array -> flow

(** Equations (3.3)-(3.4): AVIN/AVOUT. *)
val solve_av : Cfg.t -> int array -> flow

(** Equation (3.5). *)
val compute_save : Cfg.t -> antin:int array -> avin:int array -> int array

(** Equation (3.6). *)
val compute_restore :
  Cfg.t -> avout:int array -> antout:int array -> int array

type violation =
  | Conflicting_paths of Ir.label
  | Double_save of Ir.label
  | Unprotected_use of Ir.label
  | Restore_unsaved of Ir.label
  | Exit_unbalanced of Ir.label

(** Abstract interpretation of one register's placement; empty means
    balanced on every path. *)
val check_balance :
  Cfg.t ->
  app:int array ->
  save:int array ->
  restore:int array ->
  Machine.reg ->
  violation list
