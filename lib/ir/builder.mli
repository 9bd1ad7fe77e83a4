(** Mutable construction of {!Ir.proc} values.

    The front-end and the tests build procedures through this interface:
    allocate virtual registers and blocks, emit instructions into the
    current block, seal blocks with terminators, then {!finish}.  [finish]
    prunes blocks unreachable from the entry and renumbers the survivors
    densely in depth-first order, so every later analysis can assume a
    compact, entry-reachable CFG whose entry block is never a branch
    target. *)

type t

(** [create ?exported name] starts a procedure.  Block 0 — the entry — is
    current. *)
val create : ?exported:bool -> string -> t

(** [new_vreg ?kind t] allocates a fresh virtual register. *)
val new_vreg : ?kind:Ir.vreg_kind -> t -> Ir.vreg

(** [add_param t name] allocates the next parameter, in declaration order. *)
val add_param : t -> string -> Ir.vreg

(** [new_block t] allocates a fresh, empty block and returns its label.
    Does not change the current block. *)
val new_block : t -> Ir.label

(** [switch_to t l] makes [l] the current block. *)
val switch_to : t -> Ir.label -> unit

val current_label : t -> Ir.label

(** [emit t inst] appends to the current block.  Emitting into a sealed
    block is a no-op: the code would be unreachable (e.g. a statement after
    [return]). *)
val emit : t -> Ir.inst -> unit

(** [terminate t term] seals the current block; later calls are no-ops. *)
val terminate : t -> Ir.terminator -> unit

(** [finish t] seals any open block with [ret], prunes unreachable blocks,
    renumbers, and returns the finished procedure. *)
val finish : t -> Ir.proc
