(** Register allocation as a first-class strategy: the sealed interface
    between allocation policies and everything that consumes an
    allocation.

    A strategy takes one procedure plus its IPRA context
    ({!Alloc_shared.mode}: the usage table, §3 open/closed classification
    and shrink-wrap switch) and returns the
    {!Alloc_types.result}/usage-summary/stats triple consumed by
    shrink-wrapping, code generation, the cache and the penalty metrics.
    The strategy-independent work — liveness/ranges/interference before
    the decision, contract/placement/mask derivation after — lives in
    {!Alloc_shared}; a conforming strategy is only the assignment policy
    in between, which is what makes policies directly comparable in the
    strategy × workload matrix of [bench --alloc]. *)

(** What every allocation strategy implements. *)
module type S = sig
  val name : string
  (** the [--alloc] spelling *)

  (** [allocate ?explain config mode p] assigns every vreg of
      [p] a location.  Contract guaranteed to downstream passes whatever
      the policy: the assignment respects interference; parameters that
      are live on entry of a closed procedure get pairwise-distinct
      registers or the stack; anything the policy leaves in memory is
      scratch-loaded at use by the code generator.  [explain] is honoured
      by strategies with a cost model to report and ignored by the
      rest. *)
  val allocate :
    ?explain:Coloring.explanation ->
    Chow_machine.Machine.config ->
    Alloc_shared.mode ->
    Chow_ir.Ir.proc ->
    Alloc_types.result * Usage.info option * Alloc_shared.stats
end

(** The shipped strategies, in [--alloc] spelling order:
    [chow], [linear], [spill-all]. *)
type strategy = Chow | Linear | Spill_all

val all : strategy list

val to_string : strategy -> string
val of_string : string -> strategy option
val pp : Format.formatter -> strategy -> unit

val strategy_chow : (module S)
(** The paper's priority-based coloring (§2/§4/§6) with live-range
    splitting. *)

val strategy_linear : (module S)
(** Classic linear scan: span-start order, first compatible register, no
    cost model, no splitting. *)

val strategy_spill_all : (module S)
(** Spill-everywhere zero point: every value in its frame home. *)

val of_strategy : strategy -> (module S)

(** [allocate strategy ?explain config mode p] dispatches to the
    strategy's {!S.allocate}. *)
val allocate :
  strategy ->
  ?explain:Coloring.explanation ->
  Chow_machine.Machine.config ->
  Alloc_shared.mode ->
  Chow_ir.Ir.proc ->
  Alloc_types.result * Usage.info option * Alloc_shared.stats
