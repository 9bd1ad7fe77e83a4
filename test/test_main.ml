(** Test runner aggregating every suite.  [dune runtest] executes the quick
    cases; slow cases (full workload equivalence sweeps) run too unless
    ALCOTEST_QUICK_TESTS is set. *)

let () =
  Alcotest.run "chow88"
    [
      Test_bitset.suite;
      Test_frontend.suite;
      Test_ir.suite;
      Test_cfg.suite;
      Test_dataflow.suite;
      Test_liveness.suite;
      Test_callgraph.suite;
      Test_shrinkwrap.suite;
      Test_coloring.suite;
      Test_codegen.suite;
      Test_sim.suite;
      Test_e2e.suite;
      Test_modules.suite;
      Test_pipeline.suite;
      Test_workloads.suite;
      Test_golden.suite;
      Test_penalty.suite;
      Test_inline.suite;
      Test_pgo.suite;
      Test_globalpromo.suite;
      Test_split.suite;
      Test_equivalence.suite;
      Test_alloc_strategies.suite;
      Test_code_digests.suite;
      Test_code_digests.explain_suite;
      Test_code_digests.token_suite;
      Test_code_digests.bench_suite;
      Test_code_digests.artifact_suite;
      Test_parallel.suite;
      Test_obs.suite;
      Test_log.suite;
      Test_objfile.suite;
      Test_server.suite;
      Test_bench_gate.suite;
    ]
