(** One-pass inter-procedural register allocation driver (§2): processes
    procedures in depth-first call-graph order, each closed procedure
    publishing its register-usage summary before any caller is allocated.
    With [ipra = false] every procedure uses the default linkage convention
    — the paper's [-O2] baseline. *)

type t = {
  results : (string * Alloc_types.result) list;  (** in processing order *)
  usage : Usage.table;
  callgraph : Callgraph.t;
  stats : (string * Coloring.stats) list;
}

val find : t -> string -> Alloc_types.result option

(** [allocate_program ?ipra ?shrinkwrap ?jobs ?pool config prog].
    Each call-graph wave is colored concurrently: [jobs] sets
    the parallelism of a pool created for this call (default 1 —
    sequential), while [pool] supplies a shared pool instead (and [jobs]
    is ignored).  The result is bit-for-bit independent of the
    parallelism.  [explain] names one procedure whose allocation decisions
    are recorded into the supplied {!Coloring.explanation} buffer.
    [strategy] selects the allocation policy (default {!Allocator.Chow});
    every strategy publishes usage summaries through the same
    contract. *)
val allocate_program :
  ?ipra:bool ->
  ?shrinkwrap:bool ->
  ?strategy:Allocator.strategy ->
  ?jobs:int ->
  ?pool:Chow_support.Pool.t ->
  ?explain:string * Coloring.explanation ->
  Chow_machine.Machine.config ->
  Chow_ir.Ir.prog ->
  t
