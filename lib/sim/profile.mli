(** Dynamic penalty profiler: runtime attribution of the paper's headline
    metric.

    Chow's evaluation (Tables 2-4) is stated in dynamic terms — memory
    references executed for register saves and restores at procedure
    calls.  {!run} executes a linked program on the decoded engine with
    the call-path probes armed and answers *where* that penalty is paid:

    - every executed memory operation is classified by its static
      {!Chow_codegen.Asm.tag} — contract entry-save / exit-restore
      ([Tsave]), around-call save / restore ([Tcallsave]), scalar spill
      ([Tscalar]), stack argument ([Tstackarg]), or user data ([Tdata]) —
      and charged to the executing procedure and to the call site (caller
      pc) that forced it;
    - a dynamic call tree (gprof-style call-path profile) accumulates
      call counts, flat and cumulative cycles, and flat and cumulative
      penalty memory operations per path;
    - optionally, every call/return pair below a depth bound is emitted
      into the Chrome trace writer as a simulated-time span (1 cycle =
      1 us in the viewer), so a run is viewable next to its compile.

    The profiler is opt-in and pays its costs only on the call/return
    path: ordinary {!Sim.run} installs no hooks and its hot loop is
    untouched. *)

type counters = {
  entry_saves : int;  (** contract saves executed at procedure entries *)
  exit_restores : int;  (** contract restores executed at exits *)
  call_saves : int;  (** around-call saves executed at call sites *)
  call_restores : int;  (** around-call restores executed at call sites *)
  spill_loads : int;  (** scalar spill-home loads ([Tscalar]) *)
  spill_stores : int;
  stackarg_loads : int;  (** stack-argument traffic ([Tstackarg]) *)
  stackarg_stores : int;
  data_loads : int;  (** user data ([Tdata]): not a penalty *)
  data_stores : int;
}

(** One call site's share of the penalty.  Around-call operations are
    attributed statically to the call they bracket in their procedure (an
    operation with no call to bracket there is counted in {!counters}
    only), contract operations dynamically: each activation's entry saves
    and exit restores are charged to the call site that created it. *)
type site = {
  s_site : int;  (** pc of the call instruction; the stub's call is 0 *)
  s_caller : string;
  s_callee : string;  (** ["<indirect>"] for [jalr] sites *)
  s_calls : int;  (** times this site's call executed *)
  s_entry_saves : int;
  s_exit_restores : int;
  s_call_saves : int;
  s_call_restores : int;
}

(** A call-tree node: one distinct call path.  Flat figures count what
    executed while the node's activation was on top of the stack;
    cumulative figures include all descendants.  Penalty = the four
    save/restore classes (contract + around-call, loads + stores). *)
type node = {
  n_id : int;
  n_parent : int;  (** [-1] for the root *)
  n_depth : int;
  n_proc : string;  (** ["<program>"] for the root *)
  n_site : int;  (** call-site pc that created this path; [-1] for root *)
  n_calls : int;
  n_flat_cycles : int;
  n_cum_cycles : int;
  n_flat_penalty : int;
  n_cum_penalty : int;
}

type report = {
  outcome : Decode.outcome;  (** the run itself, with [profile] data *)
  counters : counters;
  sites : site list;
      (** descending by save/restore operation count, then by site pc *)
  calltree : node list;  (** preorder; the root is first *)
  tree_capped : int;
      (** calls on new distinct paths that found the node table full and
          collapsed into their parent; [0] means the tree is complete *)
}

(** [run prog] compiles [prog] through {!Decode} and executes it with the
    profiling probes installed.  [fuel], [mem_words] and [check] are as in
    {!Sim.run}.  With [trace] (default: whether tracing is enabled),
    call/return spans at depth <= [trace_depth] are pushed into
    {!Chow_obs.Event} on the simulated timebase, at most [trace_limit] of
    them.  Publishes [sim.penalty.*] counters into {!Chow_obs.Metrics}
    when armed (including [sim.penalty.tree_capped], the report's
    [tree_capped] figure).  [max_nodes] bounds the call tree (default
    2^20 distinct paths); beyond it new paths collapse into their
    parent and are counted in [tree_capped] rather than dropped
    silently.  Raises {!Sim.Runtime_error} exactly as {!Sim.run}
    would — a trapped program yields no report. *)
val run :
  ?fuel:int ->
  ?mem_words:int ->
  ?check:bool ->
  ?trace:bool ->
  ?trace_depth:int ->
  ?trace_limit:int ->
  ?max_nodes:int ->
  Chow_codegen.Asm.program ->
  report

(** Total save/restore memory operations of a counter set — the paper's
    penalty figure. *)
val penalty_total : counters -> int

(** The classification and per-site table, as printed by
    [pawnc profile --penalty-report].  [limit] bounds the per-site rows
    (default 20); when rows are cut, a trailer line says how many were
    omitted so truncated output is never mistaken for complete output. *)
val pp_penalty_report : ?limit:int -> Format.formatter -> report -> unit

(** The call tree, preorder with indentation, as printed by
    [pawnc profile --calltree].  [max_depth] prunes deep paths
    (default: unbounded).  A nonzero [tree_capped] is reported in a
    trailer line. *)
val pp_calltree : ?max_depth:int -> Format.formatter -> report -> unit

(** {2 Profile artifacts}

    The serialized form of a penalty profile — what [pawnc profile
    --emit] writes and [pawnc build --pgo] consumes: a
    {!Chow_support.Wire} container with magic ["PWNP"], the codec
    {!Chow_codegen.Objfile} uses too.  Corruption of any kind
    (truncation, bit flips, version skew, trailing bytes, crafted
    counts) raises {!Corrupt} on read — a damaged profile is rejected,
    never mis-applied. *)

(** The same exception as {!Chow_support.Wire.Corrupt}. *)
exception Corrupt of string

(** One closed-form call site's measured penalty: the [r_ordinal]-th
    direct call from [r_caller] to [r_callee] (in block-label then
    instruction order — the emitter's pc order, so the ordinal resolves
    the same site in the caller's IR via {!Chow_ir.Inline.find_site}).
    [r_penalty] is the site's dynamic save/restore memory operations
    (contract + around-call); [r_cycles] the cycles spent below the site
    summed over all call paths through it. *)
type site_row = {
  r_caller : string;
  r_callee : string;
  r_ordinal : int;
  r_calls : int;
  r_penalty : int;
  r_cycles : int;
}

type artifact = {
  a_source_digest : string;
      (** MD5 of the source units the profiled program was built from *)
  a_config_fp : string;  (** {!Chow_compiler.Config.fingerprint} *)
  a_rows : site_row list;
      (** descending [r_penalty], then [r_cycles], then site identity *)
}

(** [artifact ~source_digest ~config_fp prog report] distills a penalty
    report of [prog] into its serializable rows: every direct ([jal])
    call site attributable to a (caller, callee, ordinal) identity.
    Stub and indirect sites carry no such identity and are dropped. *)
val artifact :
  source_digest:string ->
  config_fp:string ->
  Chow_codegen.Asm.program ->
  report ->
  artifact

(** [write_artifact a] / [read_artifact bytes]: the serialized container.
    [read_artifact] raises {!Corrupt} on any damage. *)
val write_artifact : artifact -> string

val read_artifact : string -> artifact

(** [save_artifact ~path a] writes atomically ({!Chow_support.Wire.save}). *)
val save_artifact : path:string -> artifact -> unit

(** [load_artifact path] reads back; raises {!Corrupt} on damage and
    [Sys_error] on I/O failure. *)
val load_artifact : string -> artifact
