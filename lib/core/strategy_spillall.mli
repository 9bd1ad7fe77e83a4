(** Spill-everywhere baseline: every value lives in its frame home, no
    virtual register gets a physical register.  The zero point of the
    strategy matrix — still a complete, composable allocation ([$ra]
    contract, §6 propagation, IPRA mask and all-stack parameter arrivals
    via {!Alloc_shared.finish}).  [explain] is accepted for interface
    uniformity but ignored: there are no decisions to explain. *)

val name : string

val allocate :
  ?explain:Coloring.explanation ->
  Chow_machine.Machine.config ->
  Alloc_shared.mode ->
  Chow_ir.Ir.proc ->
  Alloc_types.result * Usage.info option * Alloc_shared.stats
