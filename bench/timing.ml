(** Compiler-throughput benchmarks via Bechamel: one measurement per
    table/figure experiment, timing the compilation work (allocation +
    shrink-wrap + emission) that regenerates it.  The paper reports that
    the priority-coloring extension "does not add noticeably to the running
    time of the coloring algorithm" — the intra-vs-inter pair below checks
    the same claim for this implementation.

    [--json] writes [BENCH_timing.json] with only the rows
    [trace_check --bench-compare] gates: the incremental-compilation pair
    and, under [--serve], the compile-server rows.  Compile and simulate
    times are gated by pawnbench and the paper's exact save/restore
    counts by [test/bench_counts.txt]. *)

open Bechamel
open Toolkit
module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Cache = Chow_compiler.Cache
module Sim = Chow_sim.Sim
module W = Chow_workloads.Workloads
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

(* the warm cache lives in a fresh directory of its own, so concurrent
   runs never clear each other's entries; [cleanup] removes it once
   Bechamel has measured both rows *)
let incr_tests () =
  let compile ?cache () =
    ignore
      (Pipeline.compile_source ?cache Config.o3_sw (Pipeline.Srcs incr_units))
  in
  let dir = Filename.temp_dir "chow88-bench-cache" "" in
  let warm_cache = Cache.create ~dir () in
  compile ~cache:warm_cache ();
  let cleanup () =
    Cache.clear warm_cache;
    Sys.rmdir dir
  in
  ( [
      Test.make ~name:"incr/4units-cold" (Staged.stage (fun () -> compile ()));
      Test.make ~name:"incr/4units-warm"
        (Staged.stage (fun () -> compile ~cache:warm_cache ()));
    ],
    cleanup )

(* the developer's table: compile and simulate timings (gated by
   pawnbench, not here) for the Table 1-2 and figure experiments *)
let tests () =
  let nim = source_of "nim" in
  let uopt = source_of "uopt" in
  sim_tests ()
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

let json_path = "BENCH_timing.json"

(* the rows trace_check --bench-compare gates: one [{name; ns_per_run}]
   row per timing (null for a NaN estimate, which the gate refuses) plus
   one [{name; value}] row per server count or throughput *)
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

let run ?(json = false) ?(smoke = false) ?(serve = false) ?trace () =
  Format.printf "@.Compiler throughput (Bechamel, monotonic clock)%s@."
    (if smoke then " — smoke subset" else "");
  Format.printf "%s@." (String.make 60 '=');
  let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.5) ~kde:None () in
  (* --json and --smoke measure only the incr pair, the one Bechamel
     timing the gate reads *)
  let incr, cleanup = incr_tests () in
  let raw =
    Fun.protect ~finally:cleanup (fun () ->
        Test.make_grouped ~name:"chow88"
          (if json || smoke then incr else tests () @ incr)
        |> Benchmark.all cfg Instance.[ monotonic_clock ])
  in
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
  if json then write_json (rows @ serve_ns) serve_values;
  Option.iter write_trace trace
