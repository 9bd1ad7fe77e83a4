(** Linear-scan register allocation: one pass over live ranges in
    span-start order, first compatible register wins, no cost model and no
    splitting.  Conflicts come from the exact interference graph, so the
    result is always safe; the quality gap to the paper's priority
    coloring is paid in save/restore traffic by {!Alloc_shared.finish}'s
    contract and call-plan machinery.  [explain] is accepted for interface
    uniformity but ignored: there are no per-register scores to report. *)

val name : string

val allocate :
  ?explain:Coloring.explanation ->
  Chow_machine.Machine.config ->
  Alloc_shared.mode ->
  Chow_ir.Ir.proc ->
  Alloc_types.result * Usage.info option * Alloc_shared.stats
