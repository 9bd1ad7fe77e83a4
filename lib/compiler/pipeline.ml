(** End-to-end compilation: Pawn source (or IR) through allocation, code
    generation, linking, and simulation.

    The pipeline is built around per-unit {!Chow_codegen.Objfile}
    artifacts, reproducing the paper's separate-compilation setting (§3,
    §7): each unit is laid out at its own data base, allocated on its own
    call graph (cross-unit calls go through [extern] declarations under
    the default convention), emitted into an artifact carrying its code,
    contracts and register-usage summaries, and the artifacts are linked
    at the assembly level.  Whole-program compilation is the one-unit
    case of the same path.

    With a {!Cache} attached, source units resolve against the
    content-addressed store first: a hit skips lexing, allocation and
    emission entirely and goes straight to link, and {!link_units}
    re-derives every artifact's preservation contract from its recorded
    usage mask — the proof that the IPRA mask contract survived
    serialization. *)

module Ir = Chow_ir.Ir
module Machine = Chow_machine.Machine
module Lower = Chow_frontend.Lower
module Diag = Chow_frontend.Diag
module Ipra = Chow_core.Ipra
module Usage = Chow_core.Usage
module Alloc_types = Chow_core.Alloc_types
module Frame = Chow_codegen.Frame
module Emit = Chow_codegen.Emit
module Link = Chow_codegen.Link
module Asm = Chow_codegen.Asm
module Objfile = Chow_codegen.Objfile
module Sim = Chow_sim.Sim
module Decode = Chow_sim.Decode
module Profile = Chow_sim.Profile
module Inline = Chow_ir.Inline
module Callgraph = Chow_core.Callgraph
module Bitset = Chow_support.Bitset
module Pool = Chow_support.Pool
module Event = Chow_obs.Event
module Metrics = Chow_obs.Metrics

(* A pipeline phase is a trace span that also leaves a structured log
   line at its boundary, so a server request's log tells which phase it
   was in (the ambient request scope tags the line). *)
let phase ?args name f =
  Event.debug "phase" [ ("name", Event.Str name) ];
  Event.span ?args name f

let m_units = Metrics.counter "pipeline.units"
let m_code_words = Metrics.counter "pipeline.code_words"
let m_pgo_inlined = Metrics.counter "pgo.sites_inlined"
let m_pgo_refused = Metrics.counter "pgo.sites_refused"
let m_pgo_budget_skipped = Metrics.counter "pgo.sites_budget_skipped"

type compiled = {
  c_config : Config.t;
  c_ir : Ir.prog option;  (** [None] when any unit came from the cache *)
  c_allocs : Ipra.t list;  (** freshly allocated units only *)
  c_program : Asm.program;
  c_units : Objfile.t list;  (** one artifact per compilation unit *)
  c_decoded : Decode.t option Atomic.t;
      (** the decoded program, built by the first {!run}; two domains
          that race to build it build equal values *)
}

let config c = c.c_config
let program c = c.c_program
let allocs c = c.c_allocs
let artifacts c = c.c_units

let ir c =
  match c.c_ir with
  | Some ir -> ir
  | None ->
      invalid_arg
        "Pipeline.ir: IR not retained (units were linked from cached \
         artifacts)"

(** {2 Profile-guided inlining}

    The closed feedback loop: a penalty profile ({!Profile.artifact})
    measured on one build ranks every closed direct call site by the
    save/restore memory operations it dynamically paid, and the driver
    below deletes the most expensive calls by inlining their callees —
    the ultimate penalty minimization — before the unit re-enters the
    normal IPRA/shrink-wrap path. *)

type pgo = {
  pgo_rows : Profile.site_row list;
  pgo_budget : float;
  pgo_digest : string;  (** MD5 of the serialized artifact, for cache keys *)
}

let default_inline_budget = 1.25

let source_digest srcs = Digest.string (String.concat "\x00" srcs)

let pgo_error fmt =
  Printf.ksprintf
    (fun m -> Diag.raise_legacy (Diag.error ~phase:Diag.Profile m))
    fmt

let pgo ?(budget = default_inline_budget) ~(config : Config.t) ~srcs
    (a : Profile.artifact) : pgo =
  if budget <= 0. then invalid_arg "Pipeline.pgo: budget must be positive";
  let fp = Config.fingerprint config in
  if a.Profile.a_config_fp <> fp then
    pgo_error
      "profile was measured under another configuration (%s; this build is \
       %s) — re-profile with matching flags"
      a.Profile.a_config_fp fp;
  if a.Profile.a_source_digest <> source_digest srcs then
    pgo_error
      "stale profile: the source changed since it was measured — re-run \
       pawnc profile --emit";
  {
    pgo_rows = a.Profile.a_rows;
    pgo_budget = budget;
    pgo_digest = Digest.string (Profile.write_artifact a);
  }

let load_pgo ?budget ~config ~srcs path : pgo =
  let a =
    try Profile.load_artifact path
    with Profile.Corrupt msg ->
      pgo_error "%s: corrupt profile artifact: %s" path msg
  in
  pgo ?budget ~config ~srcs a

let proc_size (p : Ir.proc) =
  Array.fold_left (fun acc b -> acc + List.length b.Ir.insts + 1) 0 p.Ir.blocks

(** Inline the profile's highest-penalty call sites into this unit.
    Candidates are direct sites whose caller and callee are defined here
    and whose callee is closed (open procedures — exported, main,
    address-taken, recursive — keep their calls).  Greedy by descending
    measured penalty (then cycles, then site identity, so the pick is
    deterministic) until the unit would outgrow [budget × original size];
    each inline splices the callee's *original* body — one pass, no
    iterative re-inlining.  Callees stay defined, so other callers and
    the IPRA summaries are unaffected. *)
let apply_pgo (pg : pgo) (unit_ir : Ir.prog) : Ir.prog =
  phase "pgo-inline" @@ fun () ->
  let by_name = Hashtbl.create 16 in
  List.iter (fun (p : Ir.proc) -> Hashtbl.replace by_name p.Ir.pname p)
    unit_ir.Ir.procs;
  let cg = Callgraph.build unit_ir in
  let unit_size =
    List.fold_left (fun acc p -> acc + proc_size p) 0 unit_ir.Ir.procs
  in
  let budget_max = int_of_float (pg.pgo_budget *. float_of_int unit_size) in
  let candidates =
    List.filter
      (fun (r : Profile.site_row) ->
        r.Profile.r_penalty > 0
        && r.Profile.r_caller <> r.Profile.r_callee
        && Hashtbl.mem by_name r.Profile.r_caller
        && Hashtbl.mem by_name r.Profile.r_callee
        && not (Callgraph.is_open cg r.Profile.r_callee))
      pg.pgo_rows
  in
  (* artifact rows are already rank-ordered; re-sort defensively so the
     greedy pick is deterministic whatever the artifact's provenance *)
  let candidates =
    List.sort
      (fun (a : Profile.site_row) (b : Profile.site_row) ->
        match compare b.Profile.r_penalty a.Profile.r_penalty with
        | 0 -> (
            match compare b.Profile.r_cycles a.Profile.r_cycles with
            | 0 ->
                compare
                  ( a.Profile.r_caller,
                    a.Profile.r_callee,
                    a.Profile.r_ordinal )
                  ( b.Profile.r_caller,
                    b.Profile.r_callee,
                    b.Profile.r_ordinal )
            | c -> c)
        | c -> c)
      candidates
  in
  let grown = ref unit_size in
  let selected =
    List.filter
      (fun (r : Profile.site_row) ->
        let callee_size =
          proc_size (Hashtbl.find by_name r.Profile.r_callee)
        in
        if !grown + callee_size <= budget_max then begin
          grown := !grown + callee_size;
          true
        end
        else begin
          if Metrics.is_on () then Metrics.add m_pgo_budget_skipped 1;
          false
        end)
      candidates
  in
  (* resolve every selected site in the ORIGINAL caller, then apply per
     caller in descending (block, index) order: Inline.inline_at keeps
     caller labels and pre-site indices stable, so positions resolved
     once stay valid through the whole sequence *)
  let sites_of : (string, ((int * int) * string) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (fun (r : Profile.site_row) ->
      let caller = Hashtbl.find by_name r.Profile.r_caller in
      match
        Inline.find_site caller ~callee:r.Profile.r_callee
          ~ordinal:r.Profile.r_ordinal
      with
      | None -> if Metrics.is_on () then Metrics.add m_pgo_refused 1
      | Some pos ->
          let cell =
            match Hashtbl.find_opt sites_of r.Profile.r_caller with
            | Some c -> c
            | None ->
                let c = ref [] in
                Hashtbl.add sites_of r.Profile.r_caller c;
                c
          in
          cell := (pos, r.Profile.r_callee) :: !cell)
    selected;
  let inline_all caller sites =
    let sites = List.sort (fun (p1, _) (p2, _) -> compare p2 p1) sites in
    List.fold_left
      (fun acc ((b, i), callee_name) ->
        match
          Inline.inline_at ~caller:acc
            ~callee:(Hashtbl.find by_name callee_name)
            ~block:b ~index:i
        with
        | Ok p ->
            if Metrics.is_on () then Metrics.add m_pgo_inlined 1;
            p
        | Error _ ->
            if Metrics.is_on () then Metrics.add m_pgo_refused 1;
            acc)
      caller sites
  in
  let procs =
    List.map
      (fun (p : Ir.proc) ->
        match Hashtbl.find_opt sites_of p.Ir.pname with
        | Some cell -> inline_all p !cell
        | None -> p)
      unit_ir.Ir.procs
  in
  { unit_ir with Ir.procs }

(* the registers a caller may assume survive a call to this procedure *)
let preserved_regs (alloc : Ipra.t) (res : Alloc_types.result) =
  if res.r_open then Machine.callee_saved
  else
    match Usage.find alloc.Ipra.usage res.r_proc.Ir.pname with
    | Some info -> Usage.preserved_of_mask info.Usage.mask
    | None -> Machine.callee_saved

let allocate_unit ?pool ?explain (config : Config.t) ~unit_idx
    (unit_ir : Ir.prog) =
  let alloc () =
    Ipra.allocate_program ~ipra:config.Config.ipra
      ~shrinkwrap:config.Config.shrinkwrap ~strategy:config.Config.alloc
      ?pool ?explain config.Config.machine unit_ir
  in
  if Event.trace_on () then
    phase ~args:[ ("unit", Event.Int unit_idx) ] "allocate-unit" alloc
  else alloc ()

(** Lay every unit out after its predecessors; returns per-unit
    [(address table, base, size, init)].  Units only reference their own
    globals, so the concatenation of the per-unit layouts is exactly the
    whole-program layout. *)
let unit_layouts (units : Ir.prog list) =
  let base = ref 0 in
  List.map
    (fun u ->
      let b = !base in
      let table, end_, init = Link.layout ~base:b u in
      base := end_;
      (table, b, end_ - b, init))
    units

(** Emit one allocated unit into its persistent artifact. *)
let emit_unit_art ~layout ~base ~size ~init (alloc : Ipra.t) : Objfile.t =
  let procs =
    List.map
      (fun (name, (res : Alloc_types.result)) ->
        let frame = Frame.build res in
        {
          Objfile.pa_code = Emit.emit_proc ~layout res frame;
          pa_open = res.Alloc_types.r_open;
          pa_preserved = preserved_regs alloc res;
          pa_usage =
            (if res.Alloc_types.r_open then None
             else Usage.find alloc.Ipra.usage name);
        })
      alloc.Ipra.results
  in
  {
    Objfile.o_procs = procs;
    o_data_base = base;
    o_data_size = size;
    o_data_init = init;
    o_externs =
      Objfile.externs_of_procs
        (List.map (fun p -> p.Objfile.pa_code) procs);
  }

(* A unit compiled a call to an extern with the default convention, so the
   callee must follow it: a closed procedure's custom convention (§3)
   would take its arguments in other registers.  Runs after [Link.link],
   which has rejected procedures defined twice. *)
let check_externs_open (arts : Objfile.t list) =
  if List.exists (fun (a : Objfile.t) -> a.Objfile.o_externs <> []) arts then begin
    let is_open = Hashtbl.create 64 in
    List.iter
      (fun (a : Objfile.t) ->
        List.iter
          (fun (p : Objfile.proc_art) ->
            Hashtbl.replace is_open p.Objfile.pa_code.Asm.pc_name p.Objfile.pa_open)
          a.Objfile.o_procs)
      arts;
    List.iter
      (fun (a : Objfile.t) ->
        List.iter
          (fun f ->
            if Hashtbl.find_opt is_open f = Some false then
              raise
                (Link.Error
                   (Printf.sprintf
                      "procedure %s is called from another unit but was \
                       compiled closed; declare it with `export proc %s`"
                      f f)))
          a.Objfile.o_externs)
      arts
  end

(** [link_units arts] links unit artifacts into one executable image.

    Before linking, every artifact is cross-checked: its recorded
    preservation contracts must re-derive from its recorded usage masks
    ({!Objfile.contract_check}), and its data base must equal the sum of
    its predecessors' data sizes (artifacts are position-dependent in
    data).  Raises [Invalid_argument] on either mismatch,
    {!Link.Undefined_procedure} for unresolved externs, and {!Link.Error}
    for a procedure defined twice, a label that does not resolve, or an
    extern that another unit compiled closed: every cross-unit call must
    reach an open procedure, one that follows the default convention. *)
let link_units (arts : Objfile.t list) : Asm.program =
  let base = ref 0 in
  List.iteri
    (fun i (a : Objfile.t) ->
      (match Objfile.contract_check a with
      | Ok () -> ()
      | Error msg ->
          invalid_arg (Printf.sprintf "Pipeline.link_units: unit %d: %s" i msg));
      if a.Objfile.o_data_base <> !base then
        invalid_arg
          (Printf.sprintf
             "Pipeline.link_units: unit %d laid out at data base %d where \
              the link order expects %d"
             i a.Objfile.o_data_base !base);
      base := a.Objfile.o_data_base + a.Objfile.o_data_size)
    arts;
  let codes =
    List.concat_map
      (fun (a : Objfile.t) ->
        List.map (fun p -> p.Objfile.pa_code) a.Objfile.o_procs)
      arts
  in
  let metas =
    List.concat_map
      (fun (a : Objfile.t) ->
        List.map
          (fun (p : Objfile.proc_art) ->
            ( p.Objfile.pa_code.Asm.pc_name,
              {
                Asm.m_name = p.Objfile.pa_code.Asm.pc_name;
                m_preserved = p.Objfile.pa_preserved;
              } ))
          a.Objfile.o_procs)
      arts
  in
  let data_init = List.concat_map (fun a -> a.Objfile.o_data_init) arts in
  let program = Link.link ~metas codes ~data_size:!base ~data_init in
  check_externs_open arts;
  if Metrics.is_on () then begin
    Metrics.add m_units (List.length arts);
    Metrics.add m_code_words (Array.length program.Asm.code)
  end;
  program

(** Lay out, allocate and emit each unit at its link-order data base; no
    link.  Units are independent until link, so they are compiled
    concurrently on one domain pool of [config.jobs] lanes; the same pool
    is shared with the per-unit wave allocation (nested
    [Pool.parallel_map] is safe), and unit order is preserved. *)
let fresh_unit_arts ?explain (config : Config.t)
    (units : Ir.prog list) =
  let layouts = phase "layout" (fun () -> unit_layouts units) in
  let indexed =
    List.mapi (fun i (u, l) -> (i, u, l)) (List.combine units layouts)
  in
  let allocs =
    phase "allocate" (fun () ->
        Pool.with_pool config.Config.jobs (fun pool ->
            Pool.parallel_map pool indexed (fun (unit_idx, u, _) ->
                allocate_unit ~pool ?explain config ~unit_idx u)))
  in
  let arts =
    phase "emit" (fun () ->
        List.map2
          (fun (layout, base, size, init) alloc ->
            emit_unit_art ~layout ~base ~size ~init alloc)
          layouts allocs)
  in
  (arts, allocs)

let promo_units units =
  phase "promo" (fun () ->
      List.iter (fun u -> ignore (Chow_core.Globalpromo.transform u)) units)

let compile_irs ?(global_promo = false) ?explain (config : Config.t)
    (units : Ir.prog list) : compiled =
  if global_promo then promo_units units;
  let merged =
    {
      Ir.procs = List.concat_map (fun u -> u.Ir.procs) units;
      globals = List.concat_map (fun u -> u.Ir.globals) units;
      externs = [];
    }
  in
  let arts, allocs = fresh_unit_arts ?explain config units in
  let program = phase "link" (fun () -> link_units arts) in
  {
    c_config = config;
    c_ir = Some merged;
    c_allocs = allocs;
    c_program = program;
    c_units = arts;
    c_decoded = Atomic.make None;
  }

(** Incremental separate compilation: each source unit is resolved against
    the content-addressed cache at the data base the link order gives it;
    hits skip the front end, the allocator and emission entirely, misses
    compile as usual and are stored for next time.  The warm rebuild of an
    unchanged program therefore allocates no procedure at all and links a
    byte-identical image. *)
let resolve_cached ?(global_promo = false) ?pgo ~cache ~require_main_first
    (config : Config.t) (srcs : string list) =
  (* the key must absorb everything that changes the generated code: the
     profile's content digest and the growth budget, like global_promo,
     extend the configuration fingerprint so a --pgo build can never
     alias a plain one (nor a build under a different profile) *)
  let fp =
    Config.fingerprint config
    ^ (if global_promo then ";gp=true" else "")
    ^
    match pgo with
    | None -> ""
    | Some pg ->
        Printf.sprintf ";pgo=%s;budget=%g"
          (Digest.to_hex pg.pgo_digest)
          pg.pgo_budget
  in
  let slots =
    phase "cache-resolve" (fun () ->
        let base = ref 0 in
        List.mapi
          (fun i src ->
            let key = Cache.key ~config_fp:fp ~source:src ~data_base:!base in
            match Cache.find cache key with
            | Some art ->
                base := !base + art.Objfile.o_data_size;
                `Hit art
            | None ->
                let unit_ir =
                  Lower.compile_unit
                    ~require_main:(require_main_first && i = 0)
                    src
                in
                let unit_ir =
                  match pgo with
                  | Some pg -> apply_pgo pg unit_ir
                  | None -> unit_ir
                in
                if global_promo then
                  ignore (Chow_core.Globalpromo.transform unit_ir);
                let b = !base in
                let layout, end_, init = Link.layout ~base:b unit_ir in
                base := end_;
                `Miss (key, i, unit_ir, layout, b, end_ - b, init))
          srcs)
  in
  phase "compile-units" (fun () ->
      Pool.with_pool config.Config.jobs (fun pool ->
          Pool.parallel_map pool slots (function
            | `Hit art -> (art, None)
            | `Miss (key, unit_idx, unit_ir, layout, base, size, init) ->
                let alloc = allocate_unit ~pool config ~unit_idx unit_ir in
                let art = emit_unit_art ~layout ~base ~size ~init alloc in
                Cache.store cache key art;
                (art, Some alloc))))

let compile_srcs_cached ?global_promo ?pgo ~cache (config : Config.t)
    (srcs : string list) : compiled =
  let pairs =
    resolve_cached ?global_promo ?pgo ~cache ~require_main_first:true config
      srcs
  in
  let arts = List.map fst pairs in
  let program = phase "link" (fun () -> link_units arts) in
  {
    c_config = config;
    c_ir = None;
    c_allocs = List.filter_map snd pairs;
    c_program = program;
    c_units = arts;
    c_decoded = Atomic.make None;
  }

type source = Src of string | Srcs of string list | Ir of Ir.prog | Units of Ir.prog list

let no_units () =
  Diag.raise_legacy (Diag.error ~phase:Diag.Check "no compilation units")

(** Separate compilation from source: the unit containing [main] comes
    first; others must not require one. *)
let units_of_srcs = function
  | [] -> no_units ()
  | first :: rest ->
      Lower.compile_unit ~require_main:true first
      :: List.map (Lower.compile_unit ~require_main:false) rest

let compile_source ?global_promo ?explain ?cache ?pgo
    (config : Config.t) (source : source) : compiled =
  let with_pgo units =
    match pgo with
    | None -> units
    | Some pg -> List.map (apply_pgo pg) units
  in
  match source with
  | Ir unit_ir ->
      compile_irs ?global_promo ?explain config (with_pgo [ unit_ir ])
  | Units [] -> no_units ()
  | Units units ->
      compile_irs ?global_promo ?explain config (with_pgo units)
  | (Src _ | Srcs _) as s -> (
      let srcs = match s with Src x -> [ x ] | Srcs xs -> xs | _ -> [] in
      if srcs = [] then no_units ();
      match cache with
      | Some cache when explain = None ->
          compile_srcs_cached ?global_promo ?pgo ~cache config srcs
      | _ ->
          compile_irs ?global_promo ?explain config
            (with_pgo (units_of_srcs srcs)))

(** [compile_artifacts config srcs] compiles each source unit to its
    persistent artifact at the data base the argument order gives it,
    without linking — the [pawnc build -c] path.  No unit is required to
    define [main]; cross-unit calls stay extern references in the
    artifacts. *)
let compile_artifacts ?global_promo ?cache ?pgo (config : Config.t)
    (srcs : string list) : Objfile.t list =
  if srcs = [] then no_units ();
  match cache with
  | Some cache ->
      List.map fst
        (resolve_cached ?global_promo ?pgo ~cache ~require_main_first:false
           config srcs)
  | None ->
      let units = List.map (Lower.compile_unit ~require_main:false) srcs in
      let units =
        match pgo with
        | Some pg -> List.map (apply_pgo pg) units
        | None -> units
      in
      if global_promo = Some true then promo_units units;
      fst (fresh_unit_arts config units)

let compile_result ?global_promo ?explain ?cache ?pgo config source =
  Diag.catch (fun () ->
      compile_source ?global_promo ?explain ?cache ?pgo config source)

(** [run c] simulates the compiled program with contract checking on,
    using the default pre-decoded engine.  The program is decoded by the
    first run and the decoded form kept, so later runs pay only
    [Decode.execute]; decoding never moves into [compile]. *)
let run ?fuel ?check (c : compiled) =
  let t =
    match Atomic.get c.c_decoded with
    | Some t -> t
    | None ->
        let t = Event.span "decode" (fun () -> Decode.decode c.c_program) in
        Atomic.set c.c_decoded (Some t);
        t
  in
  Event.span "sim" (fun () -> Decode.execute ?fuel ?check t)

(** [profile_penalty c] runs the program under the dynamic penalty
    profiler: per-site save/restore attribution and a call-path tree. *)
let profile_penalty ?fuel ?check ?trace ?trace_depth ?trace_limit
    (c : compiled) =
  Chow_sim.Profile.run ?fuel ?check ?trace ?trace_depth ?trace_limit
    c.c_program

(** Compile and run under every configuration, returning
    [(config, outcome)] pairs — the harness behind every table. *)
let run_all_configs ?fuel ?(configs = Config.all) src =
  List.map
    (fun config -> (config, run ?fuel (compile_source config (Src src))))
    configs
