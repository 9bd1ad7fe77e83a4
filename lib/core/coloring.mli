(** Priority-based coloring register allocation with the paper's
    extensions: per variable-register priorities that account for the two
    save/restore conventions (§2), parameter-register affinities (§4), and
    the shrink-wrap combining rule (§6).  See the implementation header for
    the cost model. *)

module Machine = Chow_machine.Machine

type mode = Alloc_shared.mode = {
  ipra : bool;  (** consume and publish inter-procedural usage summaries *)
  shrinkwrap : bool;
  is_open : bool;  (** §3 classification; forced open when [ipra] is off *)
  usage : Usage.table;
}

(** Intra-procedural allocation (the paper's -O2). *)
val intra_mode : shrinkwrap:bool -> mode

(** Diagnostics for tests, examples and the figure benches. *)
type stats = Alloc_shared.stats = {
  s_nranges : int;  (** live ranges considered *)
  s_allocated : int;  (** ranges granted a register *)
  s_distinct_regs : int;
  s_sw_iterations : int;  (** shrink-wrap range-extension rounds *)
  s_splits : int;  (** live-range splits performed *)
}

(** {2 Allocation explanation (--explain)}

    When an {!explanation} buffer is supplied, {!allocate} records, for the
    final (post-splitting) run, one {!range_explain} per live range in the
    order the priority queue granted them. *)

type reg_explain = {
  x_reg : Machine.reg;
  x_forbidden : bool;  (** blocked by an interfering neighbour *)
  x_score : float;  (** the §2 per-register priority, [-inf] if forbidden *)
  x_call_penalty : float;  (** caller-saved save/restore around calls *)
  x_entry_penalty : float;  (** callee-saved save/restore at entry/exit *)
  x_arg_bonus : float;  (** §4 argument-register affinity *)
  x_arrival_bonus : float;  (** §4 incoming-parameter affinity *)
}

type range_explain = {
  x_vreg : Chow_ir.Ir.vreg;
  x_name : string;  (** source name, or ["_"] for compiler temporaries *)
  x_rank : float;  (** ranking priority: weighted refs / span *)
  x_refs : float;  (** frequency-weighted reference count *)
  x_span : int;  (** live blocks *)
  x_ncalls : int;  (** call sites the range spans *)
  x_regs : reg_explain list;  (** every allocatable register's score *)
  x_chosen : Machine.reg option;
  x_denied : string option;  (** why the range went to memory *)
  x_freed : (string * Machine.reg list) list;
      (** under IPRA: callee name -> caller-saved registers its published
          mask leaves untouched across the spanned calls *)
}

type explanation = range_explain list ref

val pp_explanation : Format.formatter -> range_explain list -> unit

(** [allocate ?explain config mode p] colors one procedure.  [explain],
    when given, receives the decision trail of the final run.  Returns the allocation, the usage summary to publish
    when the procedure is closed, and diagnostics. *)
val allocate :
  ?explain:explanation ->
  Machine.config ->
  mode ->
  Chow_ir.Ir.proc ->
  Alloc_types.result * Usage.info option * stats

(** [choose_register ~order ~order_mask ~forbidden ~tree_used ~special
    ~score ~refs ~costly] is the §2 choice for one live range, or [-1]
    when every register of [order] (the allocatable registers in
    preference order, [order_mask] their mask) is [forbidden].  A register
    in [special] scores [score.(r)]; any other scores [refs], less one
    entry/exit save-restore when it is in [costly].  The winner has the
    highest score; on a tie it is the first in [order] among the tied
    registers in [tree_used], else the first of them.  Allocates
    nothing. *)
val choose_register :
  order:Machine.reg array ->
  order_mask:int ->
  forbidden:int ->
  tree_used:int ->
  special:int ->
  score:float array ->
  refs:float ->
  costly:int ->
  int
