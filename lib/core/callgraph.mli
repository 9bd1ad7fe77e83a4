(** Program call graph, depth-first processing order, and the open/closed
    classification of §3.

    A procedure is {e open} when some caller may be processed after it or
    is unknown: it is externally visible ([export]ed or [main]), its
    address is taken, or it takes part in recursion (including
    self-calls).  All other procedures are {e closed}: every caller is
    compiled later in the depth-first order and can consume their
    register-usage summary.

    The graph is numbered once over [prog.procs] and walked over those
    indices; callees are visited in [String.compare] order of their
    names. *)

type t

val build : Chow_ir.Ir.prog -> t

val is_open : t -> string -> bool

(** Processing order: callees before callers; members of a cycle are
    adjacent.  Equals [List.concat (waves t)]. *)
val processing_order : t -> string list

(** The SCC condensation leveled into dependency waves: every
    inter-component callee of a wave-[k] procedure lives in some wave
    [< k], so the procedures of one wave can be allocated independently
    once all earlier waves have published their usage summaries.
    Members of a cycle share a wave (and are open, so they never read
    each other's summaries). *)
val waves : t -> string list list

(** [waves] as the procedures themselves, taken from the graph's index
    rather than looked up by name. *)
val proc_waves : t -> Chow_ir.Ir.proc list list

(** Direct callees defined in the same program, deduplicated. *)
val direct_callees : t -> string -> string list
