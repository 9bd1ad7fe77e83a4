(** pawnc — command-line driver for the Pawn compiler.

    Subcommands:
    - [run FILE]: compile and simulate, printing the program's output and
      the pixie-style counters;
    - [compile FILE]: show the compilation artifacts ([--dump-ir],
      [--dump-asm], [--dump-alloc]);
    - [build FILES..]: separate compilation; incremental with
      [--cache-dir], [-c] writes one [.pawno] artifact per unit instead
      of linking; [--pgo PROFILE] inlines the highest-penalty call sites
      recorded by [pawnc profile --emit] before allocation, under the
      [--inline-budget] code-growth bound;
    - [link OBJS..]: link [.pawno] artifacts into an executable image,
      optionally running it;
    - [stats FILE]: compare all six paper configurations on one program;
    - [profile FILE]: execute under the dynamic penalty profiler —
      per-call-site save/restore attribution ([--penalty-report]), the
      call-path tree ([--calltree]), simulated-time trace spans
      ([--trace]), and the serialized profile artifact ([--emit]) that
      [build --pgo] consumes;
    - [callgraph FILE]: processing order, open/closed classification and
      published register-usage masks;
    - [serve]: run the long-lived compile-server daemon on a unix socket;
      [--log FILE --log-level L] writes the structured JSON-lines log,
      [--flight-dump FILE] sets the postmortem flight-recorder dump path;
    - [request]: send one build/run/profile (or ping/stats/shutdown/dump)
      request to a running daemon; [--trace FILE] records the client side
      of the exchange (connect, enqueue-wait, service, read-reply spans
      tagged with the request id the daemon also logs);
    - [top]: poll a daemon's stats and render a live per-request-class
      p50/p99/throughput table from histogram deltas.

    Exit codes: 0 on success; 2 on any user error (malformed source,
    link failure, corrupt artifact, runtime trap, unreadable file),
    always with a rendered diagnostic and never a raw OCaml backtrace;
    3 when a daemon answers [Busy] (transient — retry). *)

open Cmdliner
module Ir = Chow_ir.Ir
module Machine = Chow_machine.Machine
module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Cache = Chow_compiler.Cache
module Diag = Chow_frontend.Diag
module Asm = Chow_codegen.Asm
module Objfile = Chow_codegen.Objfile
module Ipra = Chow_core.Ipra
module Usage = Chow_core.Usage
module Callgraph = Chow_core.Callgraph
module Alloc = Chow_core.Alloc_types
module Allocator = Chow_core.Allocator
module Coloring = Chow_core.Coloring
module Sim = Chow_sim.Sim
module Profile = Chow_sim.Profile
module Event = Chow_obs.Event
module Metrics = Chow_obs.Metrics
module Server = Chow_server.Server
module Client = Chow_server.Client
module Protocol = Chow_server.Protocol

let read_file path =
  if (try Sys.is_directory path with Sys_error _ -> false) then
    raise (Sys_error (path ^ ": Is a directory"));
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ----- shared options ----- *)

(* A numeric flag the libraries reject at zero or below is refused while
   parsing the command line, so a bad value exits 2 naming the flag
   instead of escaping as an [Invalid_argument] backtrace. *)
let positive what of_string zero pp =
  let parse s =
    match of_string s with
    | Some v when v > zero -> Ok v
    | _ -> Error (Printf.sprintf "expected a positive %s, got %S" what s)
  in
  Arg.conv' (parse, pp)

let positive_int = positive "integer" int_of_string_opt 0 Format.pp_print_int

let positive_float =
  positive "number" float_of_string_opt 0. Format.pp_print_float

let file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Pawn source file.")

let o3_flag =
  Arg.(
    value & flag
    & info [ "O3"; "ipra" ]
        ~doc:"Enable inter-procedural register allocation (default: -O2).")

let no_sw_flag =
  Arg.(
    value & flag
    & info [ "no-shrinkwrap" ]
        ~doc:"Disable shrink-wrapping of callee-saved saves/restores.")

let machine_arg =
  let machine_conv =
    Arg.enum
      [
        ("full", Machine.full);
        ("7caller", Machine.seven_caller_saved);
        ("7callee", Machine.seven_callee_saved);
      ]
  in
  Arg.(
    value & opt machine_conv Machine.full
    & info [ "machine" ] ~docv:"MACHINE"
        ~doc:
          "Register file: $(b,full) (11 caller + 4 param + 9 callee), \
           $(b,7caller), or $(b,7callee) (the paper's Table 2 restrictions).")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Parallelism of the allocator pipeline: compilation units and \
           call-graph waves are compiled on $(docv) domains.  The output \
           is identical for every $(docv).")

let alloc_arg =
  let alloc_conv =
    Arg.enum
      [
        ("chow", Allocator.Chow);
        ("linear", Allocator.Linear);
        ("spill-all", Allocator.Spill_all);
      ]
  in
  Arg.(
    value & opt alloc_conv Allocator.Chow
    & info [ "alloc" ] ~docv:"STRATEGY"
        ~doc:
          "Register-allocation strategy: $(b,chow) (the paper's \
           priority-based coloring, default), $(b,linear) (linear scan: \
           fast, no cost model), or $(b,spill-all) (spill-everywhere \
           baseline).  Every strategy composes with $(b,--O3), \
           shrink-wrapping, PGO and the cache; the program output is \
           identical, only the save/restore/spill traffic differs.")

let promo_flag =
  Arg.(
    value & flag
    & info [ "promote-globals" ]
        ~doc:"Promote global scalars to registers within procedures.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON of the compilation (and \
           execution) to $(docv); load it in chrome://tracing or Perfetto.")

let stats_flag =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print per-procedure allocator diagnostics and the metrics \
           registry.")

let pgo_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "pgo" ] ~docv:"PROFILE"
        ~doc:
          "Profile-guided inlining: splice the highest-penalty closed call \
           sites recorded in $(docv) (written by $(b,pawnc profile --emit)) \
           into their callers before allocation.  The profile must have \
           been measured over these sources under these flags; corrupt or \
           stale profiles are rejected.")

let inline_budget_arg =
  Arg.(
    value
    & opt positive_float Pipeline.default_inline_budget
    & info [ "inline-budget" ] ~docv:"X"
        ~doc:
          "Code-growth bound for $(b,--pgo): stop inlining once a unit \
           would exceed $(docv) times its original IR instruction count \
           (default 1.25).")

(** Resolve the [--pgo]/[--inline-budget] pair against the build's
    sources and configuration; stale/corrupt profiles surface as
    [Profile]-phase diagnostics through {!handle_errors}. *)
let pgo_of ~config ~srcs ~budget = function
  | None -> None
  | Some path -> Some (Pipeline.load_pgo ~budget ~config ~srcs path)

(** Open the file sink behind [flag] before any work, so an unwritable
    path fails at once with a named error (exit 2) instead of at exit. *)
let open_sink flag enable =
  try enable () with Sys_error msg ->
    Printf.eprintf "error: cannot open %s file: %s\n" flag msg;
    exit 2

(** Arm tracing/metrics around [f] per the [--trace]/[--stats] flags.  The
    trace streams into its file as it is recorded, and the file is closed
    even when [f] exits through an exception, so a failing compile still
    leaves its partial timeline. *)
let with_obs ~trace ~stats f =
  Option.iter
    (fun path -> open_sink "--trace" (fun () -> Event.enable_trace ~sink:path ()))
    trace;
  if stats then Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Option.iter
        (fun path ->
          Event.disable_trace ();
          Printf.eprintf "trace written to %s\n%!" path)
        trace)
    f

(** The per-procedure allocator diagnostics (satellite of §2: splits,
    shrink-wrap iterations and register diversity were already computed —
    this surfaces them). *)
let print_alloc_stats (compiled : Pipeline.compiled) =
  Printf.printf "%-16s %7s %9s %9s %9s %7s\n" "procedure" "ranges" "allocated"
    "distinct" "sw-iters" "splits";
  List.iter
    (fun (alloc : Ipra.t) ->
      List.iter
        (fun (name, (st : Coloring.stats)) ->
          Printf.printf "%-16s %7d %9d %9d %9d %7d\n" name st.Coloring.s_nranges
            st.Coloring.s_allocated st.Coloring.s_distinct_regs
            st.Coloring.s_sw_iterations st.Coloring.s_splits)
        alloc.Ipra.stats)
    (Pipeline.allocs compiled)

let print_stats compiled =
  print_alloc_stats compiled;
  print_newline ();
  Format.printf "%a@?" Metrics.pp_table ()

let config_of ?(alloc = Allocator.Chow) ~o3 ~no_sw ~machine ~jobs () =
  {
    Config.name =
      Printf.sprintf "%s%s%s"
        (if o3 then "-O3" else "-O2")
        (if no_sw then "" else "+sw")
        (match alloc with
        | Allocator.Chow -> ""
        | s -> "/" ^ Allocator.to_string s);
    ipra = o3;
    shrinkwrap = not no_sw;
    machine;
    jobs;
    alloc;
  }

(* Every user-facing failure renders a diagnostic and exits 2 — the one
   exit code for user error across all subcommands; raw OCaml exceptions
   (and their backtraces) never reach the terminal for malformed input. *)
let handle_errors f =
  try f () with
  | Sim.Runtime_error msg ->
      Printf.eprintf "runtime error: %s\n" msg;
      exit 2
  | Chow_codegen.Link.Undefined_procedure name ->
      Printf.eprintf "link error: undefined procedure %s\n" name;
      exit 2
  | Chow_codegen.Link.Error msg ->
      Printf.eprintf "link error: %s\n" msg;
      exit 2
  | Objfile.Corrupt msg ->
      Printf.eprintf "error: corrupt artifact: %s\n" msg;
      exit 2
  | Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2
  | e when Diag.of_exn e <> None ->
      Printf.eprintf "%s\n" (Diag.to_string (Option.get (Diag.of_exn e)));
      exit 2

let print_counters name (o : Sim.outcome) =
  Printf.printf "--- %s ---\n" name;
  Printf.printf "cycles:          %d\n" o.Sim.cycles;
  Printf.printf "calls:           %d\n" o.Sim.calls;
  Printf.printf "cycles/call:     %d\n" (o.Sim.cycles / max 1 o.Sim.calls);
  Printf.printf "scalar loads:    %d\n" o.Sim.scalar_loads;
  Printf.printf "scalar stores:   %d\n" o.Sim.scalar_stores;
  Printf.printf "save/restore:    %d loads, %d stores\n" o.Sim.save_loads
    o.Sim.save_stores;
  Printf.printf "data loads/st:   %d/%d\n" o.Sim.data_loads o.Sim.data_stores

(* ----- run ----- *)

let run_cmd =
  let doc = "Compile a Pawn program and execute it in the simulator." in
  let run file o3 no_sw machine jobs alloc counters global_promo pgo
      inline_budget trace stats =
    handle_errors @@ fun () ->
    with_obs ~trace ~stats @@ fun () ->
    let config = config_of ~alloc ~o3 ~no_sw ~machine ~jobs () in
    let src = read_file file in
    let pgo = pgo_of ~config ~srcs:[ src ] ~budget:inline_budget pgo in
    let compiled =
      Pipeline.compile_source ~global_promo ?pgo config (Pipeline.Src src)
    in
    let o = Pipeline.run compiled in
    List.iter (fun v -> Printf.printf "%d\n" v) o.Sim.output;
    if stats then print_stats compiled;
    if counters then print_counters config.Config.name o
  in
  let counters =
    Arg.(
      value & flag
      & info [ "counters"; "c" ] ~doc:"Print the pixie-style counters.")
  in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      const run $ file_arg $ o3_flag $ no_sw_flag $ machine_arg $ jobs_arg
      $ alloc_arg $ counters $ promo_flag $ pgo_arg $ inline_budget_arg
      $ trace_arg $ stats_flag)

(* ----- compile ----- *)

let compile_cmd =
  let doc = "Compile and dump intermediate artifacts." in
  let compile file o3 no_sw machine jobs alloc dump_ir dump_asm dump_alloc
      trace stats explain =
    handle_errors @@ fun () ->
    with_obs ~trace ~stats @@ fun () ->
    let config = config_of ~alloc ~o3 ~no_sw ~machine ~jobs () in
    let explain_buf = Option.map (fun name -> (name, ref [])) explain in
    let compiled =
      Pipeline.compile_source ?explain:explain_buf config
        (Pipeline.Src (read_file file))
    in
    (match explain_buf with
    | None -> ()
    | Some (name, buf) ->
        if
          not
            (List.exists
               (fun (p : Ir.proc) -> p.Ir.pname = name)
               (Pipeline.ir compiled).Ir.procs)
        then begin
          Printf.eprintf "error: no procedure named %s\n" name;
          exit 2
        end;
        Format.printf "=== %s under %s ===@.%a" name config.Config.name
          Coloring.pp_explanation !buf);
    if stats then print_stats compiled;
    if dump_ir then Format.printf "%a@." Ir.pp_prog (Pipeline.ir compiled);
    if dump_alloc then
      List.iter
        (fun (alloc : Ipra.t) ->
          List.iter
            (fun (name, (res : Alloc.result)) ->
              Format.printf "@[<v 2>%s (%s):@," name
                (if res.Alloc.r_open then "open" else "closed");
              Array.iteri
                (fun v loc ->
                  let kind =
                    match res.Alloc.r_proc.Ir.vreg_kinds.(v) with
                    | Ir.Vlocal n -> n
                    | Ir.Vparam (n, _) -> n ^ " (param)"
                    | Ir.Vtemp -> "_"
                  in
                  match loc with
                  | Alloc.Lreg r ->
                      Format.printf "%%%d %-14s -> %s@," v kind
                        (Machine.name r)
                  | Alloc.Lstack ->
                      Format.printf "%%%d %-14s -> memory@," v kind)
                res.Alloc.r_assignment;
              (match Usage.find alloc.Ipra.usage name with
              | Some info ->
                  Format.printf "mask: %a@," Machine.pp_mask info.Usage.mask
              | None -> ());
              Format.printf "@]@.")
            alloc.Ipra.results)
        (Pipeline.allocs compiled);
    if dump_asm then begin
      let layout, _, _ = Chow_codegen.Link.layout (Pipeline.ir compiled) in
      List.iter
        (fun (alloc : Ipra.t) ->
          List.iter
            (fun (_, res) ->
              let frame = Chow_codegen.Frame.build res in
              Format.printf "%a@.@."
                Chow_codegen.Asm.pp_proc_code
                (Chow_codegen.Emit.emit_proc ~layout res frame))
            alloc.Ipra.results)
        (Pipeline.allocs compiled)
    end;
    if not (dump_ir || dump_asm || dump_alloc || stats || explain <> None)
    then
      Printf.printf
        "compiled %d procedures under %s (use --dump-ir/--dump-asm/--dump-alloc)\n"
        (List.length (Pipeline.ir compiled).Ir.procs)
        config.Config.name
  in
  let explain_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "explain" ] ~docv:"PROC"
          ~doc:
            "Explain the allocator's decisions for procedure $(docv): each \
             live range's priority, the best candidate of every register \
             class with its save/restore penalties and argument bonuses, \
             the granted register or the denial reason, and (under \
             $(b,--O3)) the callee usage masks that freed caller-saved \
             registers across calls.")
  in
  let dump_ir = Arg.(value & flag & info [ "dump-ir" ] ~doc:"Print the IR.") in
  let dump_asm =
    Arg.(value & flag & info [ "dump-asm" ] ~doc:"Print the assembly.")
  in
  let dump_alloc =
    Arg.(
      value & flag
      & info [ "dump-alloc" ]
          ~doc:"Print register assignments and usage masks.")
  in
  Cmd.v
    (Cmd.info "compile" ~doc)
    Term.(
      const compile $ file_arg $ o3_flag $ no_sw_flag $ machine_arg
      $ jobs_arg $ alloc_arg $ dump_ir $ dump_asm $ dump_alloc $ trace_arg
      $ stats_flag $ explain_arg)

(* ----- stats ----- *)

let stats_cmd =
  let doc = "Compare the six measurement configurations of the paper." in
  let stats file jobs =
    handle_errors @@ fun () ->
    let src = read_file file in
    let configs = List.map (Config.with_jobs jobs) Config.all in
    let results = Pipeline.run_all_configs ~configs src in
    let base =
      match results with (_, o) :: _ -> o | [] -> assert false
    in
    Printf.printf "%-16s %10s %8s %10s %10s %8s %8s\n" "config" "cycles"
      "calls" "scal.lds" "scal.sts" "cyc red." "lds red.";
    List.iter
      (fun ((c : Config.t), (o : Sim.outcome)) ->
        let red b v =
          if b = 0 then 0. else 100. *. float_of_int (b - v) /. float_of_int b
        in
        Printf.printf "%-16s %10d %8d %10d %10d %7.1f%% %7.1f%%\n"
          c.Config.name o.Sim.cycles o.Sim.calls o.Sim.scalar_loads
          o.Sim.scalar_stores
          (red base.Sim.cycles o.Sim.cycles)
          (red
             (base.Sim.scalar_loads + base.Sim.scalar_stores)
             (o.Sim.scalar_loads + o.Sim.scalar_stores)))
      results
  in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const stats $ file_arg $ jobs_arg)

(* ----- profile ----- *)

let profile_cmd =
  let doc =
    "Execute a program under the dynamic penalty profiler: classify every \
     executed memory operation (entry save, exit restore, call-site \
     save/restore, spill, stack argument, data), attribute it to the call \
     site that forced it, and build the dynamic call tree."
  in
  let profile file o3 no_sw machine jobs alloc global_promo penalty_report
      calltree limit max_depth emit trace stats =
    handle_errors @@ fun () ->
    with_obs ~trace ~stats @@ fun () ->
    let config = config_of ~alloc ~o3 ~no_sw ~machine ~jobs () in
    let src = read_file file in
    let compiled =
      Pipeline.compile_source ~global_promo config (Pipeline.Src src)
    in
    let r = Pipeline.profile_penalty compiled in
    if penalty_report || not (calltree || emit <> None) then
      Format.printf "%a@." (Profile.pp_penalty_report ~limit) r;
    if calltree then
      Format.printf "%a@." (Profile.pp_calltree ?max_depth) r;
    (match emit with
    | None -> ()
    | Some path ->
        let a =
          Profile.artifact
            ~source_digest:(Pipeline.source_digest [ src ])
            ~config_fp:(Config.fingerprint config)
            (Pipeline.program compiled) r
        in
        Profile.save_artifact ~path a;
        Printf.printf "wrote %s: %d call-site rows\n" path
          (List.length a.Profile.a_rows));
    if stats then print_stats compiled
  in
  let penalty_report_flag =
    Arg.(
      value & flag
      & info [ "penalty-report" ]
          ~doc:
            "Print the classification totals and the per-call-site \
             save/restore table (the default when $(b,--calltree) is not \
             given).")
  in
  let calltree_flag =
    Arg.(
      value & flag
      & info [ "calltree" ]
          ~doc:
            "Print the dynamic call tree with per-path call counts, \
             flat/cumulative cycles and penalty memory operations.")
  in
  let limit_arg =
    Arg.(
      value & opt int 20
      & info [ "limit" ] ~docv:"N"
          ~doc:"Rows of the per-call-site table (default 20).")
  in
  let max_depth_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-depth" ] ~docv:"N"
          ~doc:"Prune call-tree paths deeper than $(docv).")
  in
  let emit_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit" ] ~docv:"FILE"
          ~doc:
            "Write the measured per-call-site penalties to $(docv) as a \
             profile artifact for $(b,pawnc build --pgo).  The artifact \
             records this build's source digest and configuration \
             fingerprint; a consuming build validates both.")
  in
  Cmd.v
    (Cmd.info "profile" ~doc)
    Term.(
      const profile $ file_arg $ o3_flag $ no_sw_flag $ machine_arg
      $ jobs_arg $ alloc_arg $ promo_flag $ penalty_report_flag
      $ calltree_flag $ limit_arg $ max_depth_arg $ emit_arg $ trace_arg
      $ stats_flag)

(* ----- callgraph ----- *)

let callgraph_cmd =
  let doc =
    "Show the depth-first processing order, the open/closed classification, \
     and the published register-usage masks."
  in
  let callgraph file o3 no_sw machine jobs alloc =
    handle_errors @@ fun () ->
    let config = config_of ~alloc ~o3 ~no_sw ~machine ~jobs () in
    let compiled =
      Pipeline.compile_source config (Pipeline.Src (read_file file))
    in
    List.iter
      (fun (alloc : Ipra.t) ->
        let cg = alloc.Ipra.callgraph in
        List.iter
          (fun name ->
            let open_ = Callgraph.is_open cg name in
            let callees = Callgraph.direct_callees cg name in
            Printf.printf "%-16s %-6s calls: %s\n" name
              (if open_ then "open" else "closed")
              (String.concat ", " callees);
            match Usage.find alloc.Ipra.usage name with
            | Some info ->
                Format.printf "  mask: %a@." Machine.pp_mask info.Usage.mask
            | None -> ())
          (Callgraph.processing_order cg))
      (Pipeline.allocs compiled)
  in
  Cmd.v
    (Cmd.info "callgraph" ~doc)
    Term.(
      const callgraph $ file_arg $ o3_flag $ no_sw_flag $ machine_arg
      $ jobs_arg $ alloc_arg)

(* ----- build ----- *)

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Content-addressed artifact cache.  Units whose source, \
           configuration and data base match a stored artifact are linked \
           from the cache without recompiling; misses are stored for the \
           next build.")

let print_link_summary nunits (prog : Asm.program) =
  Printf.printf "linked %d unit%s: %d instructions, %d data words\n" nunits
    (if nunits = 1 then "" else "s")
    (Array.length prog.Asm.code) prog.Asm.data_size

let build_cmd =
  let doc =
    "Separate compilation: compile source units (the one defining main \
     first) and link them, or with $(b,-c) write one .pawno artifact per \
     unit."
  in
  let files_arg =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"FILES" ~doc:"Pawn source files, in link order.")
  in
  let c_flag =
    Arg.(
      value & flag
      & info [ "c" ]
          ~doc:
            "Compile only: write $(i,FILE).pawno next to each input \
             instead of linking.  No unit is required to define main.")
  in
  let build files c_only o3 no_sw machine jobs alloc global_promo cache_dir
      pgo inline_budget trace stats =
    handle_errors @@ fun () ->
    with_obs ~trace ~stats @@ fun () ->
    let config = config_of ~alloc ~o3 ~no_sw ~machine ~jobs () in
    let cache = Option.map (fun dir -> Cache.create ~dir ()) cache_dir in
    let srcs = List.map read_file files in
    let pgo = pgo_of ~config ~srcs ~budget:inline_budget pgo in
    if c_only then begin
      let arts =
        Pipeline.compile_artifacts ~global_promo ?cache ?pgo config srcs
      in
      List.iter2
        (fun file (art : Objfile.t) ->
          let path = Filename.remove_extension file ^ ".pawno" in
          Objfile.save ~path art;
          Printf.printf "wrote %s: %d procedures, %d data words at base %d\n"
            path
            (List.length art.Objfile.o_procs)
            art.Objfile.o_data_size art.Objfile.o_data_base)
        files arts;
      if stats then Format.printf "@.%a@?" Metrics.pp_table ()
    end
    else begin
      let compiled =
        Pipeline.compile_source ~global_promo ?cache ?pgo config
          (Pipeline.Srcs srcs)
      in
      print_link_summary
        (List.length (Pipeline.artifacts compiled))
        (Pipeline.program compiled);
      if stats then print_stats compiled
    end
  in
  Cmd.v
    (Cmd.info "build" ~doc)
    Term.(
      const build $ files_arg $ c_flag $ o3_flag $ no_sw_flag $ machine_arg
      $ jobs_arg $ alloc_arg $ promo_flag $ cache_dir_arg $ pgo_arg
      $ inline_budget_arg $ trace_arg $ stats_flag)

(* ----- link ----- *)

let link_cmd =
  let doc =
    "Link .pawno unit artifacts (from $(b,pawnc build -c)) into an \
     executable image; every artifact's preservation contracts are \
     re-derived from its recorded usage masks before linking."
  in
  let objs_arg =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"OBJS"
          ~doc:".pawno artifacts, the unit defining main first.")
  in
  let run_flag =
    Arg.(
      value & flag
      & info [ "run" ] ~doc:"Execute the linked program in the simulator.")
  in
  let counters_flag =
    Arg.(
      value & flag
      & info [ "counters" ] ~doc:"With $(b,--run), print the pixie counters.")
  in
  let link objs run_it counters trace stats =
    handle_errors @@ fun () ->
    with_obs ~trace ~stats @@ fun () ->
    let arts = List.map Objfile.load objs in
    let prog =
      try Pipeline.link_units arts
      with Invalid_argument msg ->
        Printf.eprintf "link error: %s\n" msg;
        exit 2
    in
    print_link_summary (List.length arts) prog;
    if stats then Format.printf "@.%a@?" Metrics.pp_table ();
    if run_it then begin
      let o = Sim.run prog in
      List.iter (fun v -> Printf.printf "%d\n" v) o.Sim.output;
      if counters then print_counters "linked" o
    end
  in
  Cmd.v
    (Cmd.info "link" ~doc)
    Term.(
      const link $ objs_arg $ run_flag $ counters_flag $ trace_arg
      $ stats_flag)

(* ----- serve ----- *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix socket path of the daemon.")

let serve_cmd =
  let doc =
    "Run the compile-server daemon: accept concurrent build/run/profile \
     requests over a unix socket, schedule them across worker domains with \
     per-request priorities and a bounded admission queue (overload \
     answers $(b,Busy)), and serve warm units from the sharded \
     content-addressed artifact cache.  Stops on a $(b,shutdown) request \
     or SIGINT/SIGTERM, draining accepted work first."
  in
  let workers_arg =
    Arg.(
      value & opt positive_int 4
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker domains executing requests (each compiles with -j1).")
  in
  let queue_bound_arg =
    Arg.(
      value & opt positive_int 64
      & info [ "queue-bound" ] ~docv:"N"
          ~doc:
            "Admission-queue depth: requests beyond $(docv) waiting jobs \
             receive an immediate $(b,Busy) reply, bounding the daemon's \
             memory under overload.")
  in
  let shards_arg =
    Arg.(
      value & opt positive_int 4
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Artifact-cache shards: independent locks by key prefix, so \
             concurrent warm requests don't serialize on one mutex.")
  in
  let max_entries_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-entries" ] ~docv:"N"
          ~doc:"Bound the artifact cache (LRU eviction); default unbounded.")
  in
  let log_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "log" ] ~docv:"FILE"
          ~doc:
            "Stream the structured log to $(docv): one JSON object per \
             line, each carrying a timestamp, level, event and the \
             request id that caused it.")
  in
  let log_level_arg =
    let level_conv =
      Arg.enum
        [
          ("error", Event.Error);
          ("warn", Event.Warn);
          ("info", Event.Info);
          ("debug", Event.Debug);
        ]
    in
    Arg.(
      value & opt level_conv Event.Info
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:
            "Log severity threshold: $(b,error), $(b,warn), $(b,info) \
             (default) or $(b,debug) (adds per-request pipeline phases \
             and cache hits).")
  in
  let flight_dump_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-dump" ] ~docv:"FILE"
          ~doc:
            "Where the flight recorder dumps its rings (JSON) when a \
             worker traps or a malformed frame arrives; default \
             $(i,SOCKET).flight.json.")
  in
  let telemetry_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "telemetry" ] ~docv:"FILE"
          ~doc:
            "Continuous telemetry: snapshot the metrics registry every \
             $(b,--sample-interval) seconds into $(docv) as JSON lines, \
             rotated to $(docv).1 after $(b,--telemetry-lines) samples \
             (a bounded on-disk time-series ring).")
  in
  let sample_interval_arg =
    Arg.(
      value & opt positive_float 1.0
      & info [ "sample-interval" ] ~docv:"SECONDS"
          ~doc:"Seconds between telemetry samples (default 1).")
  in
  let telemetry_lines_arg =
    Arg.(
      value & opt positive_int 10_000
      & info [ "telemetry-lines" ] ~docv:"N"
          ~doc:
            "Rotate the telemetry file after $(docv) samples (default \
             10000); the file pair keeps at most 2x$(docv) samples.")
  in
  let serve socket workers queue_bound cache_dir shards max_entries trace
      log log_level flight_dump telemetry sample_interval telemetry_lines
      stats =
    handle_errors @@ fun () ->
    with_obs ~trace ~stats @@ fun () ->
    Option.iter
      (fun path ->
        open_sink "--log" (fun () -> Event.enable_log ~sink:path log_level))
      log;
    let flight_path =
      match flight_dump with Some p -> p | None -> socket ^ ".flight.json"
    in
    (* the log streams as the daemon runs; closing it drains the rest,
       even when serve dies on an exception *)
    Fun.protect
      ~finally:(fun () ->
        Option.iter
          (fun path ->
            Event.disable_log ();
            Printf.eprintf "log written to %s\n%!" path)
          log)
    @@ fun () ->
    let server =
      Server.create ~workers ~queue_bound ?cache_dir ~cache_shards:shards
        ?cache_max_entries:max_entries ~flight_path ?telemetry_path:telemetry
        ~sample_interval ~telemetry_max_lines:telemetry_lines
        ~socket_path:socket ()
    in
    let stop _ = Server.request_stop server in
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
    Printf.eprintf "pawnc serve: listening on %s (%d workers, queue %d)\n%!"
      socket workers queue_bound;
    Server.serve server;
    Printf.eprintf "pawnc serve: shut down cleanly\n%!";
    if stats then Format.printf "%a@?" Metrics.pp_table ()
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const serve $ socket_arg $ workers_arg $ queue_bound_arg
      $ cache_dir_arg $ shards_arg $ max_entries_arg $ trace_arg $ log_arg
      $ log_level_arg $ flight_dump_arg $ telemetry_arg
      $ sample_interval_arg $ telemetry_lines_arg $ stats_flag)

(* ----- request ----- *)

(* A client-generated request id correlating this request's client-side
   spans with the daemon's spans, log lines and flight events.  Unique
   enough for correlation: microsecond wall clock mixed with the pid, so
   concurrent clients on one machine don't collide. *)
let fresh_request_id () =
  let t = int_of_float (Unix.gettimeofday () *. 1e6) in
  (t lxor (Unix.getpid () lsl 44)) land max_int

let request_cmd =
  let doc =
    "Send one request to a running $(b,pawnc serve) daemon: \
     $(b,build)/$(b,run)/$(b,profile) source files, or \
     $(b,ping)/$(b,stats)/$(b,health)/$(b,metrics)/$(b,dump)/$(b,shutdown) \
     control requests.  $(b,health) exits 0 when the daemon is ready and \
     1 when it is degraded, so it drops straight into a liveness check."
  in
  let action_arg =
    Arg.(
      required
      & pos 0
          (some
             (Arg.enum
                [
                  ("build", `Build);
                  ("run", `Run);
                  ("profile", `Profile);
                  ("ping", `Ping);
                  ("stats", `Stats);
                  ("health", `Health);
                  ("metrics", `Metrics);
                  ("dump", `Dump);
                  ("shutdown", `Shutdown);
                ]))
          None
      & info [] ~docv:"ACTION"
          ~doc:
            "One of $(b,build), $(b,run), $(b,profile) (with FILES), \
             $(b,ping), $(b,stats), $(b,health) (readiness probe, exit \
             0/1), $(b,metrics) (the OpenMetrics page), $(b,dump) (the \
             daemon's flight-recorder rings, as JSON), $(b,shutdown).")
  in
  let files_arg =
    Arg.(
      value
      & pos_right 0 string []
      & info [] ~docv:"FILES"
          ~doc:"Pawn source files, the unit defining main first.")
  in
  let priority_arg =
    Arg.(
      value & opt int 0
      & info [ "priority" ] ~docv:"N"
          ~doc:"Scheduling priority: higher runs sooner (default 0).")
  in
  let fuel_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"N"
          ~doc:
            (Printf.sprintf
               "Simulation fuel for run/profile; the daemon refuses a value \
                below 0 or above %d."
               Sim.default_fuel))
  in
  let counters_flag =
    Arg.(
      value & flag
      & info [ "counters" ]
          ~doc:"Print the reply's per-request metric deltas.")
  in
  let request_alloc_arg =
    Arg.(
      value & opt string "chow"
      & info [ "alloc" ] ~docv:"STRATEGY"
          ~doc:
            "Register-allocation strategy for build/run/profile requests: \
             $(b,chow), $(b,linear) or $(b,spill-all).  Validated by the \
             daemon.")
  in
  let request action files socket o3 no_sw alloc global_promo fuel priority
      counters trace =
    handle_errors @@ fun () ->
    with_obs ~trace ~stats:false @@ fun () ->
    let id = fresh_request_id () in
    let req =
      match action with
      | `Ping -> Protocol.Ping
      | `Stats -> Protocol.Stats
      | `Health -> Protocol.Health
      | `Metrics -> Protocol.Metrics_text
      | `Dump -> Protocol.Dump
      | `Shutdown -> Protocol.Shutdown
      | (`Build | `Run | `Profile) as a ->
          if files = [] then begin
            Printf.eprintf "error: %s needs at least one source file\n"
              (match a with
              | `Build -> "build"
              | `Run -> "run"
              | `Profile -> "profile");
            exit 2
          end;
          Protocol.Compile
            {
              id;
              action =
                (match a with
                | `Build -> Protocol.Build
                | `Run -> Protocol.Run
                | `Profile -> Protocol.Profile);
              srcs = List.map read_file files;
              o3;
              shrinkwrap = not no_sw;
              global_promo;
              alloc;
              fuel;
              priority;
            }
    in
    (* The client's view of the exchange: a connect span, then the
       server-side phases replayed onto the client's timeline from the
       timings the [Done] reply carries — the request was enqueued, then
       serviced, and the round-trip remainder was spent writing/reading
       the reply.  Same ids as the daemon's own spans, so the two traces
       merge into one correlated picture. *)
    let rpc c =
      let t_send = Event.elapsed_ns () in
      let reply = Client.request c req in
      let rtt_ns = Event.elapsed_ns () - t_send in
      (match reply with
      | Protocol.Done { queue_wait_ns; service_ns; _ } when Event.trace_on () ->
          let args = [ ("req", Event.Int id) ] in
          Event.span_at ~args ~ts_ns:t_send ~dur_ns:queue_wait_ns
            "enqueue-wait";
          Event.span_at ~args
            ~ts_ns:(t_send + queue_wait_ns)
            ~dur_ns:service_ns "service";
          Event.span_at ~args
            ~ts_ns:(t_send + queue_wait_ns + service_ns)
            ~dur_ns:(max 0 (rtt_ns - queue_wait_ns - service_ns))
            "read-reply"
      | _ -> ());
      reply
    in
    let reply =
      try
        let c =
          Event.span "connect"
            ~args:[ ("req", Event.Int id) ]
            (fun () -> Client.connect ~socket_path:socket)
        in
        Fun.protect ~finally:(fun () -> Client.close c) (fun () -> rpc c)
      with
      | Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
          Printf.eprintf
            "error: no compile server listening on %s (start one with \
             `pawnc serve --socket %s`)\n"
            socket socket;
          exit 2
      | Client.Server_gone ->
          Printf.eprintf "error: server closed the connection\n";
          exit 2
    in
    match reply with
    | Protocol.Done { text; counters = deltas; _ } ->
        if text <> "" then print_endline text;
        if counters then
          List.iter (fun (n, v) -> Printf.printf "%-32s %12d\n" n v) deltas
    | Protocol.Error { kind; message } ->
        Printf.eprintf "%s error: %s\n" kind message;
        exit 2
    | Protocol.Busy ->
        Printf.eprintf "server busy: admission queue full, retry later\n";
        exit 3
    | Protocol.Pong -> print_endline "pong"
    | Protocol.Stats_reply rows ->
        List.iter (fun (n, v) -> Printf.printf "%-32s %12d\n" n v) rows
    | Protocol.Bye -> print_endline "server shutting down"
    | Protocol.Dump_reply json -> print_string json
    | Protocol.Health_reply { ready; checks } ->
        print_endline (if ready then "ready" else "degraded");
        List.iter
          (fun (name, ok, detail) ->
            Printf.printf "  %-10s %-4s %s\n" name
              (if ok then "ok" else "FAIL")
              detail)
          checks;
        if not ready then exit 1
    | Protocol.Metrics_reply page -> print_string page
  in
  Cmd.v
    (Cmd.info "request" ~doc)
    Term.(
      const request $ action_arg $ files_arg $ socket_arg $ o3_flag
      $ no_sw_flag $ request_alloc_arg $ promo_flag $ fuel_arg
      $ priority_arg $ counters_flag $ trace_arg)

(* ----- top ----- *)

let top_cmd =
  let doc =
    "Live view of a running $(b,pawnc serve) daemon: poll its stats and \
     render the live levels (queue depth, in-flight requests, open \
     connections, busy workers, GC rate) from the gauges plus \
     per-request-class interpolated p50/p99 latency and throughput from \
     the histogram deltas between consecutive polls."
  in
  let interval_arg =
    Arg.(
      value & opt positive_float 1.0
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Seconds between polls (default 1).")
  in
  let count_arg =
    Arg.(
      value & opt int 0
      & info [ "count" ] ~docv:"N"
          ~doc:"Stop after $(docv) refreshes; 0 (default) runs until ^C.")
  in
  let classes = [ "build"; "run"; "profile" ] in
  (* A refresh is computed from a measured window, never the nominal
     --interval: the first poll after a slow connect, a suspended
     terminal or a stalled daemon can make the real window arbitrarily
     shorter or longer than asked for, and dividing by the nominal
     interval would print garbage throughput.  A near-zero window shows
     rates as 0 rather than inf/NaN.  Rate-from-gauge lines additionally
     require the gauge to have been present in the PREVIOUS snapshot:
     diffing a late-appearing gauge from zero would charge the daemon's
     whole lifetime to one window. *)
  let min_window_s = 1e-6 in
  let render socket ~elapsed ~prev ~cur delta =
    let v name = Option.value ~default:0 (List.assoc_opt name delta) in
    let g name = Option.value ~default:0 (List.assoc_opt name cur) in
    let rate_of n =
      if elapsed <= min_window_s then 0. else float_of_int n /. elapsed
    in
    let gauge_rate name =
      if elapsed <= min_window_s then None
      else
        match (List.assoc_opt name prev, List.assoc_opt name cur) with
        | Some p, Some c -> Some (float_of_int (c - p) /. elapsed)
        | _ -> None
    in
    (* clear only a real terminal; piped output stays a plain append log *)
    if Unix.isatty Unix.stdout then print_string "\027[2J\027[H";
    Printf.printf "pawnc top — %s, %.2fs window\n" socket elapsed;
    Printf.printf "queue %d   inflight %d   conns %d   busy workers %d\n"
      (g "server.queue_depth") (g "server.inflight")
      (g "server.connections") (g "server.workers_busy");
    (match gauge_rate "gc.minor_words" with
    | Some r ->
        Printf.printf "gc minor %.3g w/s   heap %d words   compactions %d\n"
          r (g "gc.heap_words") (g "gc.compactions")
    | None ->
        Printf.printf "gc rate pending   heap %d words   compactions %d\n"
          (g "gc.heap_words") (g "gc.compactions"));
    Printf.printf "%-8s %6s %9s %9s %9s %9s %9s %8s\n" "class" "reqs"
      "queue50" "queue99" "serv50" "serv99" "reply99" "req/s";
    let shown =
      List.filter_map
        (fun cls ->
          let h part =
            Metrics.bucket_rows (Printf.sprintf "server.%s.%s" cls part) delta
          in
          let qw = h "queue_wait_us"
          and sv = h "service_us"
          and rp = h "reply_us" in
          let n = List.fold_left (fun acc (_, c) -> acc + c) 0 sv in
          if n = 0 then None
          else
            Some
              (Printf.sprintf "%-8s %6d %9.0f %9.0f %9.0f %9.0f %9.0f %8.1f"
                 cls n
                 (Metrics.percentile_interp qw 50.)
                 (Metrics.percentile_interp qw 99.)
                 (Metrics.percentile_interp sv 50.)
                 (Metrics.percentile_interp sv 99.)
                 (Metrics.percentile_interp rp 99.)
                 (rate_of n)))
        classes
    in
    if shown = [] then print_endline "(idle: no requests this interval)"
    else List.iter print_endline shown;
    Printf.printf "completed %d   failed %d   busy %d   protocol errors %d\n%!"
      (v "server.completed") (v "server.failed") (v "server.busy")
      (v "server.protocol_error")
  in
  let top socket interval count =
    handle_errors @@ fun () ->
    try
      Client.with_connection ~socket_path:socket @@ fun c ->
      let poll () =
        match Client.request c Protocol.Stats with
        | Protocol.Stats_reply rows -> rows
        | _ ->
            Printf.eprintf "error: unexpected reply to stats\n";
            exit 2
      in
      let prev = ref (poll ()) in
      let t_prev = ref (Unix.gettimeofday ()) in
      let n = ref 0 in
      while count = 0 || !n < count do
        Unix.sleepf interval;
        incr n;
        let cur = poll () in
        let now = Unix.gettimeofday () in
        render socket
          ~elapsed:(now -. !t_prev)
          ~prev:!prev ~cur
          (Metrics.diff !prev cur);
        prev := cur;
        t_prev := now
      done
    with
    | Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
        Printf.eprintf "error: no compile server listening on %s\n" socket;
        exit 2
    | Client.Server_gone ->
        Printf.eprintf "error: server closed the connection\n";
        exit 2
  in
  Cmd.v
    (Cmd.info "top" ~doc)
    Term.(const top $ socket_arg $ interval_arg $ count_arg)

let main_cmd =
  let doc =
    "Pawn compiler with inter-procedural register allocation and \
     shrink-wrapping (Chow, PLDI 1988)"
  in
  Cmd.group
    (Cmd.info "pawnc" ~version:"1.0.0" ~doc)
    [
      run_cmd;
      compile_cmd;
      build_cmd;
      link_cmd;
      stats_cmd;
      profile_cmd;
      callgraph_cmd;
      serve_cmd;
      request_cmd;
      top_cmd;
    ]

(* a malformed command line is a user error like any other: fold
   cmdliner's own CLI-error status into the uniform exit 2 *)
let () =
  match Cmd.eval main_cmd with
  | c when c = Cmd.Exit.cli_error -> exit 2
  | c -> exit c
