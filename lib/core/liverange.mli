(** Live ranges in the style of priority-based coloring: each virtual
    register owns one live range described by the blocks it is live or
    referenced in, its frequency-weighted use/def counts, and the call
    sites its range spans. *)

module Bitset = Chow_support.Bitset
module Ir = Chow_ir.Ir

type call_site = {
  cs_id : int;
  cs_block : Ir.label;
  cs_index : int;  (** index of the call within its block's instructions *)
  cs_target : Ir.call_target;
  cs_args : Ir.operand list;
  cs_ret : Ir.vreg option;
  cs_weight : float;
  cs_live_across : Bitset.t;  (** vregs live through the call *)
}

type range = {
  vreg : Ir.vreg;
  blocks : Bitset.t;  (** blocks where the vreg is live or referenced *)
  weighted_refs : float;  (** frequency-weighted loads+stores saved *)
  span : int;  (** cardinal of [blocks]; the paper's range size *)
  calls_across : int list;  (** [cs_id]s of call sites the range spans *)
  arg_moves : (int * int) list;
      (** (cs_id, argument position) pairs where this vreg is passed *)
}

type t = {
  ranges : range array;  (** indexed by vreg *)
  call_sites : call_site array;
  weights : float array;  (** per-block frequency estimate *)
}

(** Static estimate: [10^min(loop-depth, 5)] per block. *)
val default_weights : Ir.proc -> Chow_ir.Loops.t -> float array

(** [compute p loops liveness ig] weighs each block by
    {!default_weights}.  Each call's live-across set is the one the
    interference walk recorded ({!Interference.live_across}), shared, not
    copied. *)
val compute :
  Ir.proc ->
  Chow_ir.Loops.t ->
  Liveness.t ->
  Interference.t ->
  t
