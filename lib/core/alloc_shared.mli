(** The strategy-independent halves of register allocation: {!analyze}
    computes everything a strategy needs before it decides anything
    (liveness, live ranges, interference, per-call-site IPRA context),
    and {!finish} turns a bare assignment into the full
    {!Alloc_types.result} — callee-saved contract, shrink-wrapped
    save/restore placement (§5), the §6 combining rule, call plans,
    parameter arrivals, and the closed procedure's published usage
    summary.  A strategy (see {!Allocator}) is just the code in
    between. *)

module Machine := Chow_machine.Machine

(** IPRA context of one allocation, shared by every strategy. *)
type mode = {
  ipra : bool;  (** consume and publish inter-procedural usage summaries *)
  shrinkwrap : bool;
  is_open : bool;  (** §3 classification; forced open when [ipra] is off *)
  usage : Usage.table;
}

(** Intra-procedural allocation (the paper's -O2). *)
val intra_mode : shrinkwrap:bool -> mode

(** Diagnostics for tests, examples and the figure benches. *)
type stats = {
  s_nranges : int;  (** live ranges considered *)
  s_allocated : int;  (** ranges granted a register *)
  s_distinct_regs : int;
  s_sw_iterations : int;  (** shrink-wrap range-extension rounds *)
  s_splits : int;  (** live-range splits performed *)
}

(** Everything {!analyze} computes before any assignment decision. *)
type analysis = {
  cfg : Chow_ir.Cfg.t;
  dom : Chow_ir.Dom.t;
  loops : Chow_ir.Loops.t;
  lv : Liveness.t;
  lr : Liverange.t;
  ig : Interference.t;
  honor_contract : bool;
      (** must this procedure preserve the callee-saved contract?
          [(not ipra) || is_open] *)
  usage : Usage.table;  (** the table consulted (empty when not IPRA) *)
  site_clobber : int array;
      (** per call site: mask of the registers the callee may modify *)
  site_arg_locs : Alloc_types.param_loc list array;
      (** per call site: argument destinations under the callee's
          convention *)
  callee_clobbers : int;  (** union of [site_clobber] *)
}

(** [analyze config mode p] runs the strategy-independent analyses. *)
val analyze :
  Machine.config ->
  mode ->
  Chow_ir.Ir.proc ->
  analysis

(** [finish config mode p analysis assignment] derives everything
    downstream of the assignment decision.  [assignment] must map every
    vreg of [p] to its location; any assignment is safe — a register
    granted where it costs save/restore traffic is paid for by the
    contract and call-plan machinery here, never by broken code. *)
val finish :
  Machine.config ->
  mode ->
  Chow_ir.Ir.proc ->
  analysis ->
  Alloc_types.location array ->
  Alloc_types.result * Usage.info option * stats

(** Record one allocation in the shared [color.*] metrics (no-op when
    metrics are off).  Called once per procedure by every strategy. *)
val publish_metrics : Alloc_types.result -> stats -> unit
