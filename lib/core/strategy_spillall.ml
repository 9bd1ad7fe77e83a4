(** Spill-everywhere baseline (the [spill-all] strategy of {!Allocator}).

    No virtual register is granted a physical register: every value lives
    in its frame home and is scratch-loaded at each use, which is exactly
    the [Lstack] contract the code generator already honours for ranges
    the colorer declines.  The point of keeping it behind the same
    interface is the strategy matrix: spill-everywhere is the zero of the
    design space — the measured save/restore/spill traffic every real
    allocator must beat (cf. Bouchez et al. on spill-everywhere as the
    canonical lower bound of allocation quality).

    The procedure still flows through {!Alloc_shared.finish}: it saves
    [$ra] when it calls, honours the §6 combining rule for callee-saved
    registers its callees clobber, and — when closed under IPRA —
    publishes a usage mask (its callees' clobbers) and all-stack parameter
    arrivals, so callers compose with it exactly as with any other
    allocation. *)

module Ir = Chow_ir.Ir
module Machine = Chow_machine.Machine
open Alloc_types

let name = "spill-all"

let allocate ?explain:_ (config : Machine.config)
    (mode : Alloc_shared.mode) (p : Ir.proc) :
    result * Usage.info option * Alloc_shared.stats =
  let a = Alloc_shared.analyze config mode p in
  let assignment = Array.make p.Ir.nvregs Lstack in
  let result, info, stats = Alloc_shared.finish config mode p a assignment in
  Alloc_shared.publish_metrics result stats;
  (result, info, stats)
