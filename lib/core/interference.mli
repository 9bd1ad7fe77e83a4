(** Interference graph over virtual registers, dense bitset adjacency.

    {!build} walks each block backwards once, from its [live_out] set; the
    same walk records the vregs live across every call, which
    {!Liverange.compute} reads instead of walking again. *)

type t

val build : Chow_ir.Ir.proc -> Liveness.t -> t
val interfere : t -> Chow_ir.Ir.vreg -> Chow_ir.Ir.vreg -> bool
val neighbors : t -> Chow_ir.Ir.vreg -> Chow_support.Bitset.t
val degree : t -> Chow_ir.Ir.vreg -> int

(** [live_across t] holds, per call of the procedure in forward order
    (blocks ascending, then instruction order: the [cs_id] order of
    {!Liverange}), the vregs live through the call: live after it, less
    the vreg it defines. *)
val live_across : t -> Chow_support.Bitset.t array
