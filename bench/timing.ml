(** Compiler-throughput benchmarks via Bechamel: one measurement per
    table/figure experiment, timing the compilation work (allocation +
    shrink-wrap + emission) that regenerates it.  The paper reports that
    the priority-coloring extension "does not add noticeably to the running
    time of the coloring algorithm" — the intra-vs-inter pair below checks
    the same claim for this implementation. *)

open Bechamel
open Toolkit
module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Cache = Chow_compiler.Cache
module Sim = Chow_sim.Sim
module W = Chow_workloads.Workloads
module Allocator = Chow_core.Allocator
module Event = Chow_obs.Event

let source_of name =
  match W.find name with
  | Some w -> w.W.source
  | None -> invalid_arg ("unknown workload " ^ name)

let compile_test ~name config src =
  Test.make ~name (Staged.stage (fun () -> ignore (Pipeline.compile_source config (Pipeline.Src src))))

(* Simulator throughput: one run of an already-compiled program.  The
   decoded engine's pre-decode pass is part of every run (included and
   amortized, not cached), so the pair below is an honest end-to-end
   comparison of Sim.run against Sim.run_reference. *)
let sim_test ~name ~engine config src =
  let prog = Pipeline.program (Pipeline.compile_source config (Pipeline.Src src)) in
  let run =
    match engine with
    | `Decoded -> fun () -> ignore (Sim.run prog)
    | `Reference -> fun () -> ignore (Sim.run_reference prog)
  in
  Test.make ~name (Staged.stage run)

let sim_tests () =
  let uopt = source_of "uopt" in
  [
    (* interpreter speed on the largest workload, tracked across PRs:
       decoded (the default engine) vs. the reference specification *)
    sim_test ~name:"sim/uopt-O2-decoded" ~engine:`Decoded Config.baseline uopt;
    sim_test ~name:"sim/uopt-O2-reference" ~engine:`Reference Config.baseline
      uopt;
    sim_test ~name:"sim/uopt-O3+sw-decoded" ~engine:`Decoded Config.o3_sw uopt;
    sim_test ~name:"sim/uopt-O3+sw-reference" ~engine:`Reference Config.o3_sw
      uopt;
  ]

(* Incremental separate compilation: one main unit plus three library
   units with compile-only bodies heavy enough that allocation dominates.
   The cold row compiles all four from scratch; the warm row resolves all
   four against a pre-seeded artifact cache, so the pair measures exactly
   what the content-addressed store saves (front end + allocation +
   emission, leaving only hashing and link). *)
let incr_lib tag =
  Printf.sprintf
    {|
export proc %s_inner(a, b) {
  var acc = 0;
  var i = 0;
  while (i < a) {
    var j = 0;
    while (j < b) {
      if ((i + j) / 2 * 2 == i + j) { acc = acc + i * j; }
      else { acc = acc - j; }
      j = j + 1;
    }
    i = i + 1;
  }
  return acc;
}
export proc %s_outer(n) {
  var total = 0;
  var k = 1;
  while (k <= n) {
    total = total + %s_inner(k, n - k);
    k = k + 1;
  }
  return total;
}
|}
    tag tag tag

let incr_units =
  [
    {|
extern proc alpha_outer(n);
extern proc beta_outer(n);
extern proc gamma_outer(n);
proc main() {
  print(alpha_outer(6) + beta_outer(5) + gamma_outer(4));
}
|};
    incr_lib "alpha";
    incr_lib "beta";
    incr_lib "gamma";
  ]

let incr_tests () =
  let compile ?cache () =
    ignore
      (Pipeline.compile_source ?cache Config.o3_sw (Pipeline.Srcs incr_units))
  in
  let warm_cache =
    let dir =
      Filename.concat (Filename.get_temp_dir_name ()) "chow88-bench-cache"
    in
    let cache = Cache.create ~dir () in
    Cache.clear cache;
    compile ~cache ();
    cache
  in
  [
    Test.make ~name:"incr/4units-cold" (Staged.stage (fun () -> compile ()));
    Test.make ~name:"incr/4units-warm"
      (Staged.stage (fun () -> compile ~cache:warm_cache ()));
  ]

(* the @ci smoke subset: three workloads' compiles plus one sim pair, small
   enough to run on every continuous-integration build *)
let smoke_tests () =
  let nim = source_of "nim" in
  let calcc = source_of "calcc" in
  let dhrystone = source_of "dhrystone" in
  Test.make_grouped ~name:"chow88"
    ([
      compile_test ~name:"table1/nim-O3+sw" Config.o3_sw nim;
      compile_test ~name:"table1/calcc-O3+sw" Config.o3_sw calcc;
      compile_test ~name:"table1/dhrystone-O3+sw" Config.o3_sw dhrystone;
      sim_test ~name:"sim/nim-O3+sw-decoded" ~engine:`Decoded Config.o3_sw nim;
      sim_test ~name:"sim/nim-O3+sw-reference" ~engine:`Reference Config.o3_sw
        nim;
    ]
    @ incr_tests ())

let tests () =
  let nim = source_of "nim" in
  let uopt = source_of "uopt" in
  Test.make_grouped ~name:"chow88"
    (sim_tests ()
    @ [
      (* Table 1: the four configurations' compile pipelines *)
      compile_test ~name:"table1/nim-O2" Config.baseline nim;
      compile_test ~name:"table1/nim-O2+sw" Config.o2_sw nim;
      compile_test ~name:"table1/nim-O3" Config.o3 nim;
      compile_test ~name:"table1/nim-O3+sw" Config.o3_sw nim;
      (* Table 2: restricted register files *)
      compile_test ~name:"table2/nim-7caller" Config.seven_caller nim;
      compile_test ~name:"table2/nim-7callee" Config.seven_callee nim;
      (* the largest program, checking the one-pass property scales *)
      compile_test ~name:"table1/uopt-O3+sw" Config.o3_sw uopt;
      (* sequential vs wave-parallel allocation of the same program: the
         pair that tracks the domain-pool speedup across PRs *)
      compile_test ~name:"table1/uopt-O3+sw-j1" (Config.with_jobs 1 Config.o3_sw)
        uopt;
      compile_test ~name:"table1/uopt-O3+sw-j4" (Config.with_jobs 4 Config.o3_sw)
        uopt;
      (* figures *)
      compile_test ~name:"fig1/compile" Config.o3_sw Figures.fig1_src;
      compile_test ~name:"fig3/compile" Config.o2_sw (Figures.fig3_src 1 1);
      compile_test ~name:"fig4/compile" Config.o3_sw
        (Figures.fig4_src ~cold_r:true ~q_calls:40 ~r_calls:2);
    ]
    @ incr_tests ())

let json_path = "BENCH_timing.json"

(* Dynamic-penalty trajectory: the paper's headline metric as exact
   integer rows.  For each workload and configuration, run once under the
   penalty profiler and report the executed save/restore memory
   operations plus the scalar memory operations removed relative to the
   -O2 baseline.  Compilation and simulation are deterministic, so these
   rows are bit-stable and the CI gate (trace_check --bench-compare)
   demands exact equality. *)
let penalty_rows ~smoke () =
  let workloads =
    if smoke then [ "nim" ] else [ "nim"; "dhrystone"; "uopt"; "stanford" ]
  in
  let configs = [ Config.baseline; Config.o2_sw; Config.o3; Config.o3_sw ] in
  List.concat_map
    (fun workload ->
      let src = source_of workload in
      let reports =
        List.map
          (fun (config : Config.t) ->
            (config, Pipeline.profile_penalty (Pipeline.compile_source config (Pipeline.Src src))))
          configs
      in
      let scalar_ops (r : Chow_sim.Profile.report) =
        r.Chow_sim.Profile.outcome.Chow_sim.Decode.scalar_loads
        + r.Chow_sim.Profile.outcome.Chow_sim.Decode.scalar_stores
      in
      let base_ops =
        match reports with (_, r) :: _ -> scalar_ops r | [] -> 0
      in
      List.concat_map
        (fun ((config : Config.t), (r : Chow_sim.Profile.report)) ->
          let c = r.Chow_sim.Profile.counters in
          let row what v =
            (Printf.sprintf "penalty/%s/%s/%s" workload config.Config.name what, v)
          in
          [
            row "saves"
              (c.Chow_sim.Profile.entry_saves + c.Chow_sim.Profile.call_saves);
            row "restores"
              (c.Chow_sim.Profile.exit_restores
              + c.Chow_sim.Profile.call_restores);
            row "memops_removed_vs_O2" (base_ops - scalar_ops r);
          ])
        reports)
    workloads

(* Profile-guided inlining trajectory: for each workload and headline
   configuration, measure a penalty profile, rebuild under --pgo with the
   default budget, and report the save/restore memory operations removed
   relative to the plain build, the PGO build's cycle count, and its code
   growth in instruction words.  Deterministic end to end, so the CI gate
   demands exact equality — and memops_removed_vs_baseline must never go
   negative (a PGO build may not pay more penalty than it started with). *)
let pgo_rows ~smoke () =
  let workloads = if smoke then [ "dhrystone" ] else [ "dhrystone"; "uopt" ] in
  let configs = [ Config.baseline; Config.o3_sw ] in
  List.concat_map
    (fun workload ->
      let src = source_of workload in
      List.concat_map
        (fun (config : Config.t) ->
          let plain = Pipeline.compile_source config (Pipeline.Src src) in
          let plain_r = Pipeline.profile_penalty plain in
          let a =
            Chow_sim.Profile.artifact
              ~source_digest:(Pipeline.source_digest [ src ])
              ~config_fp:(Config.fingerprint config)
              (Pipeline.program plain) plain_r
          in
          let pgo = Pipeline.pgo ~config ~srcs:[ src ] a in
          let pgo_c = Pipeline.compile_source ~pgo config (Pipeline.Src src) in
          let pgo_r = Pipeline.profile_penalty pgo_c in
          let penalty (r : Chow_sim.Profile.report) =
            Chow_sim.Profile.penalty_total r.Chow_sim.Profile.counters
          in
          let code c =
            Array.length (Pipeline.program c).Chow_codegen.Asm.code
          in
          let row what v =
            (Printf.sprintf "pgo/%s/%s/%s" workload config.Config.name what, v)
          in
          [
            row "memops_removed_vs_baseline" (penalty plain_r - penalty pgo_r);
            row "cycles" pgo_r.Chow_sim.Profile.outcome.Chow_sim.Decode.cycles;
            row "code_growth" (code pgo_c - code plain);
          ])
        configs)
    workloads

(* Allocation-strategy matrix: every [--alloc] policy over the paper
   workloads under the two headline configurations.  Each cell reports
   the compile wall time plus the run's dynamic cycles and save/restore
   traffic.  "saves" counts every store the allocation decision causes
   (register save/caller-save stores plus spill-home stores) and
   "restores" the matching loads, so the spill-everywhere baseline is
   comparable with the coloring strategies on the axis the paper
   minimizes.  cycles/saves/restores are deterministic exact rows gated
   by [trace_check --bench-compare], which additionally demands that
   priority coloring strictly dominates spill-all on saves+restores for
   every cell; compile_us is informational (host-dependent, skipped by
   the gate). *)
let alloc_rows ~smoke () =
  let workloads = if smoke then [ "nim" ] else [ "nim"; "dhrystone"; "uopt" ] in
  let configs = [ Config.baseline; Config.o3_sw ] in
  List.concat_map
    (fun workload ->
      let src = source_of workload in
      List.concat_map
        (fun (config : Config.t) ->
          List.concat_map
            (fun strategy ->
              let config = Config.with_alloc strategy config in
              let t0 = Unix.gettimeofday () in
              let compiled =
                Pipeline.compile_source config (Pipeline.Src src)
              in
              let compile_us =
                int_of_float ((Unix.gettimeofday () -. t0) *. 1e6)
              in
              let o = Pipeline.run compiled in
              let row what v =
                ( Printf.sprintf "alloc/%s/%s/%s/%s"
                    (Allocator.to_string strategy) workload
                    config.Config.name what,
                  v )
              in
              [
                row "compile_us" compile_us;
                row "cycles" o.Sim.cycles;
                row "saves" (o.Sim.save_stores + o.Sim.scalar_stores);
                row "restores" (o.Sim.save_loads + o.Sim.scalar_loads);
              ])
            Allocator.all)
        configs)
    workloads

(* machine-readable perf trajectory: one [{name; ns_per_run}] row per test
   plus one [{name; value}] row per exact count, so successive PRs can
   diff compile-time cost without scraping stdout *)
let write_json rows values =
  let oc = open_out json_path in
  let total = List.length rows + List.length values in
  let sep i = if i < total - 1 then "," else "" in
  Printf.fprintf oc "[\n";
  List.iteri
    (fun i (name, ns) ->
      Printf.fprintf oc "  {\"name\": %S, \"ns_per_run\": %s}%s\n" name
        (if Float.is_nan ns then "null" else Printf.sprintf "%.1f" ns)
        (sep i))
    rows;
  List.iteri
    (fun i (name, v) ->
      Printf.fprintf oc "  {\"name\": %S, \"value\": %d}%s\n" name v
        (sep (List.length rows + i)))
    values;
  Printf.fprintf oc "]\n";
  close_out oc;
  Format.printf "wrote %s (%d entries)@." json_path total

(** One traced compile-and-run of the largest workload under the headline
    configuration at [-j4] — the Chrome-loadable timeline showing the
    wave-parallel allocation spans next to the simulator counters. *)
let write_trace path =
  Event.reset ();
  Event.enable_trace ~sink:path ();
  let compiled =
    Pipeline.compile_source (Config.with_jobs 4 Config.o3_sw) (Pipeline.Src (source_of "uopt"))
  in
  ignore (Sim.run (Pipeline.program compiled));
  Event.disable_trace ();
  Format.printf "wrote %s@." path

let run ?(json = false) ?(smoke = false) ?(penalty = false) ?(pgo = false)
    ?(serve = false) ?(alloc = false) ?trace () =
  Format.printf "@.Compiler throughput (Bechamel, monotonic clock)%s@."
    (if smoke then " — smoke subset" else "");
  Format.printf "%s@." (String.make 60 '=');
  let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.5) ~kde:None () in
  let suite = if smoke then smoke_tests () else tests () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] suite in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name o acc ->
        match Analyze.OLS.estimates o with
        | Some (est :: _) -> (name, est) :: acc
        | Some [] | None -> (name, nan) :: acc)
      results []
    |> List.sort compare
  in
  List.iter
    (fun (name, ns) ->
      Format.printf "%-36s %12.1f us/run@." name (ns /. 1000.))
    rows;
  (* the serve bench runs last: it spins up in-process daemons whose
     worker domains would perturb the single-threaded timings above *)
  let serve_ns, serve_values =
    if serve then begin
      Format.printf "@.Compile-server latency (%s)@."
        (if smoke then "smoke subset" else "full load");
      Format.printf "%s@." (String.make 60 '=');
      Serve_bench.rows ~smoke ()
    end
    else ([], [])
  in
  if json then
    write_json (rows @ serve_ns)
      ((if penalty then penalty_rows ~smoke () else [])
      @ (if pgo then pgo_rows ~smoke () else [])
      @ (if alloc then alloc_rows ~smoke () else [])
      @ serve_values);
  Option.iter write_trace trace
