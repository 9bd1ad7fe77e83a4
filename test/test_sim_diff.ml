(** Differential sweep: the decoded engine ({!Sim.run}) against the
    reference engine ({!Sim.run_reference}) on all thirteen workloads,
    under the baseline configuration and under -O3+sw with each register
    allocator (each publishes different usage masks, so the decoded
    engine prunes different contracts), with block profiling on.
    Outcomes must match exactly: output, cycle count, calls, per-tag
    load/store counters and block profiles.

    This is its own test executable (see test/dune) so plain
    [dune runtest] always exercises the engine equivalence even when the
    slow suites of the main runner are skipped. *)

module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Sim = Chow_sim.Sim
module W = Chow_workloads.Workloads

let check_agree name (prog : Chow_codegen.Asm.program) =
  let d = Sim.run ~profile:true prog in
  let r = Sim.run_reference ~profile:true prog in
  Alcotest.(check (list int)) (name ^ ": output") r.Sim.output d.Sim.output;
  Alcotest.(check int) (name ^ ": cycles") r.Sim.cycles d.Sim.cycles;
  Alcotest.(check int) (name ^ ": calls") r.Sim.calls d.Sim.calls;
  Alcotest.(check int) (name ^ ": data loads") r.Sim.data_loads d.Sim.data_loads;
  Alcotest.(check int) (name ^ ": data stores") r.Sim.data_stores
    d.Sim.data_stores;
  Alcotest.(check int) (name ^ ": scalar loads") r.Sim.scalar_loads
    d.Sim.scalar_loads;
  Alcotest.(check int) (name ^ ": scalar stores") r.Sim.scalar_stores
    d.Sim.scalar_stores;
  Alcotest.(check int) (name ^ ": save loads") r.Sim.save_loads d.Sim.save_loads;
  Alcotest.(check int) (name ^ ": save stores") r.Sim.save_stores
    d.Sim.save_stores;
  Alcotest.(check bool) (name ^ ": block counts equal") true
    (d.Sim.block_counts = r.Sim.block_counts);
  Alcotest.(check (list (pair string int)))
    (name ^ ": proc cycles")
    r.Sim.proc_cycles d.Sim.proc_cycles;
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

let () =
  Alcotest.run "sim-diff"
    [
      ( "decoded vs reference",
        List.map
          (fun w -> Alcotest.test_case w.W.name `Quick (test_workload w))
          W.all );
    ]
