(** The sealed compiler pipeline: Pawn source (or IR) through allocation,
    code generation, unit artifacts, linking, and simulation.

    This interface is the supported surface of the compiler library.
    A {!compiled} value is abstract; consumers read it through the
    accessors.  Compilation takes one {!source} describing what is being
    compiled; the historical entry points remain as thin aliases.
    Attaching a {!Cache.t} turns separate compilation incremental: unit
    artifacts ({!Chow_codegen.Objfile}) are resolved against the
    content-addressed store, and a warm rebuild of unchanged sources
    links a byte-identical image without allocating a single procedure. *)

module Ir := Chow_ir.Ir
module Asm := Chow_codegen.Asm
module Objfile := Chow_codegen.Objfile
module Ipra := Chow_core.Ipra
module Coloring := Chow_core.Coloring
module Sim := Chow_sim.Sim
module Profile := Chow_sim.Profile
module Diag := Chow_frontend.Diag

type compiled

(** {2 Accessors} *)

val config : compiled -> Config.t

(** The linked executable image. *)
val program : compiled -> Asm.program

(** One {!Objfile.t} per compilation unit, in link order — what the
    incremental cache stores and [pawnc build -c] writes to disk. *)
val artifacts : compiled -> Objfile.t list

(** Per-unit allocation results, in unit order.  Units that were linked
    from cached artifacts are absent (nothing was allocated for them). *)
val allocs : compiled -> Ipra.t list

(** The merged IR of a fresh build.  Raises [Invalid_argument] when the
    build linked cached artifacts, whose IR never existed in this
    process. *)
val ir : compiled -> Ir.prog

(** {2 Profile-guided inlining}

    A validated penalty profile ({!Chow_sim.Profile.artifact}) plus a
    code-growth budget — what [pawnc build --pgo] threads into the
    pipeline.  Validation happens at construction: a profile measured
    under another configuration or over different sources is rejected
    with a [Profile]-phase {!Diag.error} (via {!Diag.Error}), never
    silently mis-applied.  The inliner itself
    ({!Chow_ir.Inline.inline_at}) runs on each unit's IR before
    promotion and allocation, greedily splicing the highest-penalty
    closed call sites until growing the unit past [budget] times its
    original instruction count. *)
type pgo

(** The default code-growth budget: the post-inline unit may reach 1.25x
    its original IR instruction count. *)
val default_inline_budget : float

(** The digest {!pgo} validates profiles against: MD5 over the source
    unit texts in link order.  [pawnc profile --emit] stamps this into
    the artifact. *)
val source_digest : string list -> string

(** [pgo a ~config ~srcs] validates [a] against the build about to run.
    Raises [Invalid_argument] if [budget <= 0] and a [Profile]-phase
    {!Diag.error} (as {!Diag.Error}) if [a] was measured under a
    different {!Config.fingerprint} or different source texts. *)
val pgo :
  ?budget:float ->
  config:Config.t ->
  srcs:string list ->
  Profile.artifact ->
  pgo

(** [load_pgo path ~config ~srcs] is {!pgo} over
    {!Profile.load_artifact}, with {!Profile.Corrupt} also reified as a
    [Profile]-phase {!Diag.error}.  Raises [Sys_error] on I/O failure. *)
val load_pgo :
  ?budget:float -> config:Config.t -> srcs:string list -> string -> pgo

(** {2 Compilation} *)

(** What to compile: one source text, source units in link order (the
    unit containing [main] first), one IR unit, or IR units. *)
type source =
  | Src of string
  | Srcs of string list
  | Ir of Ir.prog
  | Units of Ir.prog list

(** [compile_source config source] runs the full pipeline.

    - [global_promo] promotes global scalars to registers within
      procedures (§1) before allocation.
    - [explain] names one procedure whose allocation decisions are
      recorded into the supplied {!Coloring.explanation} buffer.
    - [cache] makes [Src]/[Srcs] compilation incremental.  Ignored when
      [explain] is supplied (its effect is not part of the cache key) and
      for IR sources (no source text to address by).
    - [pgo] inlines the profile's highest-penalty call sites into each
      unit before allocation.  Composes with [cache]: the profile digest
      and budget are absorbed into the cache fingerprint, so PGO builds
      never alias plain ones.

    Raises the legacy front-end exceptions on malformed source — use
    {!compile_result} for a result-returning surface — and
    {!Chow_codegen.Link.Undefined_procedure} at link time. *)
val compile_source :
  ?global_promo:bool ->
  ?explain:string * Coloring.explanation ->
  ?cache:Cache.t ->
  ?pgo:pgo ->
  Config.t ->
  source ->
  compiled

(** [compile_result config source] is {!compile_source} with the three
    front-end failure modes (and the empty-source-list case) reified as
    a {!Diag.error} instead of an exception. *)
val compile_result :
  ?global_promo:bool ->
  ?explain:string * Coloring.explanation ->
  ?cache:Cache.t ->
  ?pgo:pgo ->
  Config.t ->
  source ->
  (compiled, Diag.error) result

(** [compile_artifacts config srcs] compiles each source unit to its
    persistent artifact at the data base the argument order gives it,
    without linking — the [pawnc build -c] path.  No unit is required to
    define [main]; cross-unit calls stay extern references in the
    artifacts.  With [cache], units resolve against the store exactly as
    in {!compile_source}. *)
val compile_artifacts :
  ?global_promo:bool ->
  ?cache:Cache.t ->
  ?pgo:pgo ->
  Config.t ->
  string list ->
  Objfile.t list

(** [link_units arts] links unit artifacts (from {!artifacts},
    {!Cache.find} or {!Objfile.load}) into one executable image.  Before
    linking it asserts, per artifact, that the recorded preservation
    contracts re-derive from the recorded usage masks
    ({!Objfile.contract_check}) and that the recorded data bases agree
    with the link order; raises [Invalid_argument] on mismatch,
    {!Chow_codegen.Link.Undefined_procedure} for unresolved externs, and
    {!Chow_codegen.Link.Error} for a procedure defined twice, a label that
    does not resolve, or an extern that its defining unit compiled closed
    (a cross-unit call assumes the default convention, so its target must
    be [export]ed; under -O2 every procedure is open). *)
val link_units : Objfile.t list -> Asm.program

(** {2 Execution} *)

(** [run c] simulates the compiled program on the pre-decoded engine with
    contract checking on by default.  The first run of [c] decodes it and
    keeps the decoded form, so later runs only execute; domains that race
    to decode it build equal values, and one of them is kept. *)
val run : ?fuel:int -> ?check:bool -> compiled -> Sim.outcome

(** [profile_penalty c] runs the compiled program under the dynamic
    penalty profiler ({!Chow_sim.Profile}): save/restore attribution per
    call site, a call-path tree, and optional simulated-time trace spans.
    Raises {!Chow_sim.Sim.Runtime_error} exactly as {!run} would. *)
val profile_penalty :
  ?fuel:int ->
  ?check:bool ->
  ?trace:bool ->
  ?trace_depth:int ->
  ?trace_limit:int ->
  compiled ->
  Profile.report

(** Compile and run under every configuration (default: all six of the
    paper), returning [(config, outcome)] pairs. *)
val run_all_configs :
  ?fuel:int ->
  ?configs:Config.t list ->
  string ->
  (Config.t * Sim.outcome) list
