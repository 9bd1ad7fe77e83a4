(** Determinism of the wave-parallel allocator and the wave decomposition
    itself: [Ipra.allocate_program] must produce bit-identical results,
    usage summaries, stats and assembly whatever the parallelism, and
    [Callgraph.waves] must concatenate to the processing order with every
    inter-component callee edge pointing to an earlier wave.

    The pools used here are [~force]d, so the concurrent path (worker
    domains, shared queue, nested batches) is exercised even on a
    single-core CI host where an unforced pool degrades to sequential. *)

module Ir = Chow_ir.Ir
module Lower = Chow_frontend.Lower
module Callgraph = Chow_core.Callgraph
module Ipra = Chow_core.Ipra
module Alloc = Chow_core.Alloc_types
module Usage = Chow_core.Usage
module Machine = Chow_machine.Machine
module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Pool = Chow_support.Pool
module W = Chow_workloads.Workloads

(* ----- the pool itself ----- *)

let test_pool_map_order () =
  Pool.with_pool ~force:true 4 (fun pool ->
      let xs = List.init 100 Fun.id in
      Alcotest.(check (list int))
        "order preserved" (List.map succ xs)
        (Pool.parallel_map pool xs succ))

let test_pool_sequential_degrade () =
  Pool.with_pool 1 (fun pool ->
      Alcotest.(check int) "size 1" 1 (Pool.size pool);
      Alcotest.(check (list int)) "maps" [ 2; 3 ]
        (Pool.parallel_map pool [ 1; 2 ] succ))

exception Boom of int

let test_pool_first_exception () =
  Pool.with_pool ~force:true 3 (fun pool ->
      let xs = List.init 20 Fun.id in
      match Pool.parallel_map pool xs (fun i ->
                if i mod 2 = 1 then raise (Boom i) else i)
      with
      | _ -> Alcotest.fail "expected an exception"
      | exception Boom i ->
          Alcotest.(check int) "lowest failing index wins" 1 i)

let test_pool_nested () =
  Pool.with_pool ~force:true 3 (fun pool ->
      let sums =
        Pool.parallel_map pool [ 10; 20; 30 ] (fun base ->
            Pool.parallel_map pool [ 1; 2; 3 ] (fun d -> base + d)
            |> List.fold_left ( + ) 0)
      in
      Alcotest.(check (list int)) "nested batches" [ 36; 66; 96 ] sums)

(* ----- wave decomposition ----- *)

let check_waves prog_name (prog : Ir.prog) =
  let cg = Callgraph.build prog in
  let waves = Callgraph.waves cg in
  Alcotest.(check (list string))
    (prog_name ^ ": waves concatenate to processing order")
    (Callgraph.processing_order cg)
    (List.concat waves);
  let wave_of = Hashtbl.create 16 in
  List.iteri
    (fun k wave -> List.iter (fun n -> Hashtbl.replace wave_of n k) wave)
    waves;
  List.iter
    (fun p ->
      let name = p.Ir.pname in
      let k = Hashtbl.find wave_of name in
      List.iter
        (fun callee ->
          let kc = Hashtbl.find wave_of callee in
          if kc >= k then begin
            (* same wave is legal only for recursion: both ends open *)
            if kc > k then
              Alcotest.failf "%s: callee %s of %s in a later wave" prog_name
                callee name;
            if not (Callgraph.is_open cg name && Callgraph.is_open cg callee)
            then
              Alcotest.failf
                "%s: same-wave edge %s -> %s outside a call-graph cycle"
                prog_name name callee
          end)
        (Callgraph.direct_callees cg name))
    prog.Ir.procs

let test_waves_workloads () =
  List.iter (fun w -> check_waves w.W.name (Lower.compile_unit w.W.source)) W.all

let test_waves_random () =
  for seed = 0 to 19 do
    check_waves
      (Printf.sprintf "genprog seed %d" seed)
      (Lower.compile_unit (Genprog.generate ~seed ()))
  done

(* ----- allocation determinism ----- *)

let canon_call_plans plans =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) plans [] |> List.sort compare

let check_result_equal name (a : Alloc.result) (b : Alloc.result) =
  let ok =
    a.Alloc.r_assignment = b.Alloc.r_assignment
    && a.Alloc.r_param_locs = b.Alloc.r_param_locs
    && a.Alloc.r_param_live = b.Alloc.r_param_live
    && a.Alloc.r_contract_saves = b.Alloc.r_contract_saves
    && List.sort compare a.Alloc.r_save_at = List.sort compare b.Alloc.r_save_at
    && List.sort compare a.Alloc.r_restore_at
       = List.sort compare b.Alloc.r_restore_at
    && a.Alloc.r_open = b.Alloc.r_open
    && canon_call_plans a.Alloc.r_call_plans
       = canon_call_plans b.Alloc.r_call_plans
  in
  if not ok then Alcotest.failf "%s: allocation differs across jobs" name

let canon_usage (u : Usage.table) =
  Usage.fold
    (fun name (info : Usage.info) acc ->
      (name, info.Usage.mask, info.Usage.param_locs) :: acc)
    u []
  |> List.sort compare

let allocate src how =
  (* a fresh lowering per run: allocation mutates the procedures *)
  let prog = Lower.compile_unit src in
  match how with
  | `Jobs n ->
      Ipra.allocate_program ~ipra:true ~shrinkwrap:true ~jobs:n Machine.full
        prog
  | `Forced_pool n ->
      Pool.with_pool ~force:true n (fun pool ->
          Ipra.allocate_program ~ipra:true ~shrinkwrap:true ~pool Machine.full
            prog)

let check_allocation_deterministic name src =
  let base = allocate src (`Jobs 1) in
  List.iter
    (fun how ->
      let other = allocate src how in
      Alcotest.(check (list string))
        (name ^ ": result order")
        (List.map fst base.Ipra.results)
        (List.map fst other.Ipra.results);
      List.iter2
        (fun (pn, ra) (_, rb) -> check_result_equal (name ^ "/" ^ pn) ra rb)
        base.Ipra.results other.Ipra.results;
      if not (canon_usage base.Ipra.usage = canon_usage other.Ipra.usage) then
        Alcotest.failf "%s: usage table differs across jobs" name;
      if not (base.Ipra.stats = other.Ipra.stats) then
        Alcotest.failf "%s: stats differ across jobs" name)
    [ `Jobs 4; `Forced_pool 4 ]

let test_alloc_deterministic (w : W.t) () =
  check_allocation_deterministic w.W.name w.W.source

let test_alloc_deterministic_random () =
  for seed = 0 to 9 do
    check_allocation_deterministic
      (Printf.sprintf "genprog seed %d" seed)
      (Genprog.generate ~seed ())
  done

(* ----- end-to-end: identical assembly ----- *)

let check_asm_identical name src =
  let compile jobs =
    Pipeline.program
      (Pipeline.compile_source (Config.with_jobs jobs Config.o3_sw) (Pipeline.Src src))
  in
  if not (compile 1 = compile 4) then
    Alcotest.failf "%s: assembly differs between -j 1 and -j 4" name

let test_asm_identical (w : W.t) () = check_asm_identical w.W.name w.W.source

let test_asm_identical_random () =
  for seed = 0 to 4 do
    check_asm_identical
      (Printf.sprintf "genprog seed %d" seed)
      (Genprog.generate ~seed ())
  done

let big = [ "uopt"; "tex"; "as1"; "upas"; "ccom" ]

let suite =
  ( "parallel",
    [
      Alcotest.test_case "pool: map preserves order" `Quick test_pool_map_order;
      Alcotest.test_case "pool: sequential degrade" `Quick
        test_pool_sequential_degrade;
      Alcotest.test_case "pool: first exception wins" `Quick
        test_pool_first_exception;
      Alcotest.test_case "pool: nested parallel_map" `Quick test_pool_nested;
      Alcotest.test_case "waves: all workloads" `Quick test_waves_workloads;
      Alcotest.test_case "waves: random programs" `Quick test_waves_random;
      Alcotest.test_case "allocation deterministic: random programs" `Quick
        test_alloc_deterministic_random;
      Alcotest.test_case "assembly identical: random programs" `Quick
        test_asm_identical_random;
    ]
    @ List.map
        (fun w ->
          Alcotest.test_case
            ("allocation deterministic: " ^ w.W.name)
            (if List.mem w.W.name big then `Slow else `Quick)
            (test_alloc_deterministic w))
        W.all
    @ List.map
        (fun w ->
          Alcotest.test_case
            ("assembly identical: " ^ w.W.name)
            (if List.mem w.W.name big then `Slow else `Quick)
            (test_asm_identical w))
        W.all )
