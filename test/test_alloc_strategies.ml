(** Differential sweep over the allocation strategies: every [--alloc]
    policy (priority coloring, linear scan, spill-everywhere) must
    compile all thirteen paper workloads to programs with identical
    observable behavior — same printed output, same dynamic call count —
    under both the -O2 baseline and the full -O3+sw configuration.  The
    strategies may only differ on the axis the paper measures: the
    save/restore and spill-home memory traffic, where priority coloring
    must beat the spill-everywhere zero point strictly in every cell.

    A second sweep pins the determinism contract per strategy: compiling
    with a 4-worker domain pool must produce the same linked image,
    bit for bit, as the sequential build. *)

module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Allocator = Chow_core.Allocator
module Sim = Chow_sim.Sim
module W = Chow_workloads.Workloads

let configs = [ Config.baseline; Config.o3_sw ]

let outcome strategy (config : Config.t) src =
  let config = Config.with_alloc strategy config in
  Pipeline.run (Pipeline.compile_source config (Pipeline.Src src))

(* save/restore traffic the allocation decision causes: register
   save/restore memory operations plus spill-home scalar loads/stores *)
let penalty (o : Sim.outcome) =
  o.Sim.save_loads + o.Sim.save_stores + o.Sim.scalar_loads
  + o.Sim.scalar_stores

let check_counters name (o : Sim.outcome) =
  Alcotest.(check bool) (name ^ ": ran some cycles") true (o.Sim.cycles > 0);
  Alcotest.(check bool) (name ^ ": made some calls") true (o.Sim.calls > 0);
  (* the around-call save traffic is a subset of all save traffic *)
  Alcotest.(check bool)
    (name ^ ": call-save loads within save loads")
    true
    (o.Sim.call_save_loads >= 0 && o.Sim.call_save_loads <= o.Sim.save_loads);
  Alcotest.(check bool)
    (name ^ ": call-save stores within save stores")
    true
    (o.Sim.call_save_stores >= 0
    && o.Sim.call_save_stores <= o.Sim.save_stores);
  (* every memory-traffic counter is accounted inside the cycle count:
     each counted operation is one executed instruction *)
  Alcotest.(check bool)
    (name ^ ": memory traffic within cycles")
    true
    (penalty o + o.Sim.data_loads + o.Sim.data_stores <= o.Sim.cycles)

let test_workload (w : W.t) () =
  List.iter
    (fun (config : Config.t) ->
      let chow = outcome Allocator.Chow config w.W.source in
      check_counters
        (Printf.sprintf "%s/%s/chow" w.W.name config.Config.name)
        chow;
      let others =
        List.map
          (fun s -> (s, outcome s config w.W.source))
          [ Allocator.Linear; Allocator.Spill_all ]
      in
      List.iter
        (fun (s, o) ->
          let name =
            Printf.sprintf "%s/%s/%s" w.W.name config.Config.name
              (Allocator.to_string s)
          in
          Alcotest.(check (list int))
            (name ^ ": output identical to chow")
            chow.Sim.output o.Sim.output;
          Alcotest.(check int)
            (name ^ ": same dynamic call count")
            chow.Sim.calls o.Sim.calls;
          check_counters name o)
        others;
      let spill = List.assoc Allocator.Spill_all others in
      (* the paper's claim as an inequality: priority coloring pays
         strictly less save/spill traffic than spilling everything *)
      Alcotest.(check bool)
        (Printf.sprintf
           "%s/%s: chow < spill-all on save/spill traffic (%d < %d)" w.W.name
           config.Config.name (penalty chow) (penalty spill))
        true
        (penalty chow < penalty spill))
    configs

(* the strategy switch through the CLI: [run --alloc S --counters]
   prints the same program output for every strategy, and chow's
   save/restore plus spill-home traffic lands strictly below
   spill-all's *)
let test_cli_alloc () =
  Test_server.with_src "clialloc" Test_server.calls_src @@ fun dir src ->
  let run strategy =
    Test_server.run_pawnc dir
      [ "run"; src; "--O3"; "--alloc"; strategy; "--counters" ]
  in
  let traffic out =
    Test_server.save_restore_ops out
    + Test_server.int_row ~prefix:"scalar loads:" out
    + Test_server.int_row ~prefix:"scalar stores:" out
  in
  let chow = run "chow" in
  let linear = run "linear" in
  let spill = run "spill-all" in
  List.iter
    (fun (strategy, out) ->
      Alcotest.(check (list string))
        (strategy ^ ": output identical to chow")
        (Test_server.program_output chow)
        (Test_server.program_output out))
    [ ("linear", linear); ("spill-all", spill) ];
  Alcotest.(check bool)
    (Printf.sprintf "chow < spill-all on save/spill traffic (%d < %d)"
       (traffic chow) (traffic spill))
    true
    (traffic chow < traffic spill)

(* -j1 vs -j4: the wave-parallel driver must be invisible in the output
   whatever the strategy decides *)
let test_determinism strategy () =
  List.iter
    (fun wname ->
      let src =
        match W.find wname with
        | Some w -> w.W.source
        | None -> Alcotest.fail ("unknown workload " ^ wname)
      in
      let image jobs =
        let config =
          Config.with_alloc strategy (Config.with_jobs jobs Config.o3_sw)
        in
        Pipeline.program (Pipeline.compile_source config (Pipeline.Src src))
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s: -j1 and -j4 images bit-identical" wname
           (Allocator.to_string strategy))
        true
        (image 1 = image 4))
    [ "nim"; "dhrystone"; "stanford" ]

let suite =
  ( "alloc-strategies",
    List.map
      (fun w ->
        Alcotest.test_case ("differential: " ^ w.W.name) `Slow
          (test_workload w))
      W.all
    @ List.map
        (fun s ->
          Alcotest.test_case
            ("determinism -j1 vs -j4: " ^ Allocator.to_string s)
            `Slow (test_determinism s))
        Allocator.all
    @ [ Alcotest.test_case "cli: run --alloc S" `Quick test_cli_alloc ] )
