(** The keystone invariant of the whole system: register allocation, IPRA,
    shrink-wrapping and register-file restriction never change behaviour.
    Every workload and a stream of random programs must print exactly the
    same sequence under every configuration — and the simulator's contract
    checker is armed throughout, so any clobbered callee-saved register or
    unbalanced save/restore fails the test. *)

module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Machine = Chow_machine.Machine
module Sim = Chow_sim.Sim
module W = Chow_workloads.Workloads

let outputs_under src configs =
  List.map
    (fun (config : Config.t) ->
      let c = Pipeline.compile_source config (Pipeline.Src src) in
      (config.Config.name, (Pipeline.run c).Sim.output))
    configs

let assert_all_equal name results =
  match results with
  | [] -> ()
  | (base_name, base) :: rest ->
      List.iter
        (fun (cfg_name, out) ->
          if out <> base then
            Alcotest.failf "%s: output under %s differs from %s" name
              cfg_name base_name)
        rest

let test_workload (w : W.t) () =
  assert_all_equal w.W.name (outputs_under w.W.source Config.all)

(* extra, harsher register files than the paper's Table 2 *)
let tiny_configs =
  [
    Config.baseline;
    {
      Config.name = "tiny-2caller";
      ipra = true;
      shrinkwrap = true;
      machine = Machine.restrict ~n_caller:2 ~n_callee:0 ~n_param:2;
      jobs = 1;
      alloc = Chow_core.Allocator.Chow;
    };
    {
      Config.name = "tiny-1callee";
      ipra = true;
      shrinkwrap = true;
      machine = Machine.restrict ~n_caller:0 ~n_callee:1 ~n_param:0;
      jobs = 1;
      alloc = Chow_core.Allocator.Chow;
    };
    {
      Config.name = "tiny-1caller-nosw";
      ipra = false;
      shrinkwrap = false;
      machine = Machine.restrict ~n_caller:1 ~n_callee:1 ~n_param:1;
      jobs = 1;
      alloc = Chow_core.Allocator.Chow;
    };
  ]

let test_workload_tiny_machines (w : W.t) () =
  assert_all_equal w.W.name (outputs_under w.W.source tiny_configs)

let prop_random_equivalence =
  QCheck.Test.make ~count:120
    ~name:"random programs behave identically under all configurations"
    (QCheck.make (QCheck.Gen.int_bound 1_000_000) ~print:(fun seed ->
         (* print the offending program, not just the seed *)
         Printf.sprintf "seed %d:\n%s" seed (Genprog.generate ~seed ())))
    (fun seed ->
      let src = Genprog.generate ~seed () in
      (* also exercise the global-promotion pass *)
      let promoted =
        Pipeline.run (Pipeline.compile_source ~global_promo:true Config.o3_sw (Pipeline.Src src))
      in
      match outputs_under src (Config.all @ List.tl tiny_configs) with
      | [] -> true
      | (_, base) :: rest ->
          List.for_all (fun (_, out) -> out = base) rest
          && promoted.Sim.output = base)

let workload_cases =
  List.concat_map
    (fun w ->
      [
        Alcotest.test_case (w.W.name ^ " (6 configs)") `Slow
          (test_workload w);
        Alcotest.test_case (w.W.name ^ " (tiny machines)") `Slow
          (test_workload_tiny_machines w);
      ])
    W.all

let suite =
  ( "equivalence",
    workload_cases @ [ QCheck_alcotest.to_alcotest prop_random_equivalence ] )
