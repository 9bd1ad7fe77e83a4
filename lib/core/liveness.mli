(** Live-variable analysis over virtual registers. *)

module Bitset = Chow_support.Bitset

type t = {
  live_in : Bitset.t array;  (** per block *)
  live_out : Bitset.t array;
  upward_exposed : Bitset.t array;  (** gen: used before any def in block *)
  defs : Bitset.t array;  (** kill: defined in block *)
}

val compute : Chow_ir.Ir.proc -> Chow_ir.Cfg.t -> t
