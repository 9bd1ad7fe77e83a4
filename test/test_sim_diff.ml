(** Differential sweep: the decoded engine ({!Sim.run}) against the
    reference engine ({!Sim.run_reference}) on all thirteen workloads,
    under the baseline configuration and under -O3+sw with each register
    allocator (each publishes different usage masks, so the decoded
    engine prunes different contracts), with block profiling off and on.
    Outcomes must match exactly: output, cycle count, calls, every
    per-tag load/store counter, block profiles and per-procedure cycles.
    A second group runs each workload at -O3+sw with fuel one short of
    its cycle count, equal to it and one past it: the first must trap
    with the reference's exact message, the others complete.

    This is its own test executable (see test/dune) so plain
    [dune runtest] always exercises the engine equivalence even when the
    slow suites of the main runner are skipped. *)

module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Sim = Chow_sim.Sim
module W = Chow_workloads.Workloads

let check_agree name (prog : Chow_codegen.Asm.program) =
  match Engines.agree name prog with
  | Error e -> Alcotest.failf "%s: trapped: %s" name e
  | Ok d ->
      (* attribution is complete: per-procedure cycles sum to the total *)
      Alcotest.(check int)
        (name ^ ": proc cycles sum")
        d.Sim.cycles
        (List.fold_left (fun acc (_, c) -> acc + c) 0 d.Sim.proc_cycles)

let test_workload (w : W.t) () =
  List.iter
    (fun (config : Config.t) ->
      let c = Pipeline.compile_source config (Pipeline.Src w.W.source) in
      check_agree
        (Printf.sprintf "%s/%s/%s" w.W.name config.Config.name
           (Chow_core.Allocator.to_string config.Config.alloc))
        (Pipeline.program c))
    (Config.baseline
    :: List.map
         (fun a -> Config.with_alloc a Config.o3_sw)
         Chow_core.Allocator.all)

let test_fuel_edges (w : W.t) () =
  let prog =
    Pipeline.program
      (Pipeline.compile_source Config.o3_sw (Pipeline.Src w.W.source))
  in
  let cycles = (Sim.run prog).Sim.cycles in
  List.iter
    (fun fuel ->
      let r =
        Engines.agree ~fuel (Printf.sprintf "%s fuel %d" w.W.name fuel) prog
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: fuel %d completes" w.W.name fuel)
        (fuel >= cycles) (Result.is_ok r))
    [ cycles - 1; cycles; cycles + 1 ]

let () =
  Alcotest.run "sim-diff"
    [
      ( "decoded vs reference",
        List.map
          (fun w -> Alcotest.test_case w.W.name `Quick (test_workload w))
          W.all );
      ( "fuel at the last cycle",
        List.map
          (fun w -> Alcotest.test_case w.W.name `Quick (test_fuel_edges w))
          W.all );
    ]
