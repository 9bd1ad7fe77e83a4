(** Pipeline-level tests: configuration vocabulary, data layout, and the
    harness helpers the benches rely on. *)

module Ir = Chow_ir.Ir
module Link = Chow_codegen.Link
module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Sim = Chow_sim.Sim

let test_config_inventory () =
  Alcotest.(check int) "six configurations" 6 (List.length Config.all);
  Alcotest.(check (list string)) "names"
    [ "-O2"; "-O2+sw"; "-O3"; "-O3+sw"; "-O3+sw/7caller"; "-O3+sw/7callee" ]
    (List.map (fun (c : Config.t) -> c.Config.name) Config.all);
  (match Config.all with
  | base :: _ ->
      Alcotest.(check bool) "baseline first" true
        (base.Config.name = Config.baseline.Config.name
        && (not base.Config.ipra)
        && not base.Config.shrinkwrap)
  | [] -> Alcotest.fail "no configs")

let test_run_all_configs () =
  let results =
    Pipeline.run_all_configs
      "proc f(x) { return x * x; } proc main() { print(f(6)); }"
  in
  Alcotest.(check int) "six outcomes" 6 (List.length results);
  List.iter
    (fun ((c : Config.t), (o : Sim.outcome)) ->
      Alcotest.(check (list int)) (c.Config.name ^ " output") [ 36 ] o.Sim.output)
    results

let test_data_layout () =
  let ir =
    Chow_frontend.Lower.compile_unit
      {|
var a = 7;
var arr[5] = {1, 2};
var b = 0;
var c = -3;
proc main() { print(a + arr[0] + arr[1] + arr[4] + b + c); }
|}
  in
  let table, size, init = Link.layout ir in
  Alcotest.(check int) "data size: 1 + 5 + 1 + 1" 8 size;
  Alcotest.(check int) "a at 0" 0 (Hashtbl.find table "a");
  Alcotest.(check int) "arr after a" 1 (Hashtbl.find table "arr");
  Alcotest.(check int) "b after arr" 6 (Hashtbl.find table "b");
  (* only non-zero initialisers are recorded *)
  Alcotest.(check (list (pair int int)))
    "init entries"
    [ (0, 7); (1, 1); (2, 2); (7, -3) ]
    (List.sort compare init);
  let o = Pipeline.run (Pipeline.compile_source Config.baseline (Pipeline.Src {|
var a = 7;
var arr[5] = {1, 2};
var b = 0;
var c = -3;
proc main() { print(a + arr[0] + arr[1] + arr[4] + b + c); }
|})) in
  Alcotest.(check (list int)) "initialisation observed" [ 7 ] o.Sim.output

let test_compile_modules_options () =
  (* the optional passes compose with separate compilation *)
  let lib = "export proc sq(x) { return x * x; }" in
  let app =
    {|
var cache = 0;
extern proc sq(x);
proc remember(x) { cache = cache + x; return cache; }
proc main() { print(sq(4)); print(remember(2)); print(remember(3)); }
|}
  in
  let plain = Pipeline.compile_source Config.o3_sw (Pipeline.Srcs [ app; lib ]) in
  let promoted =
    Pipeline.compile_source ~global_promo:true Config.o3_sw (Pipeline.Srcs [ app; lib ])
  in
  Alcotest.(check (list int)) "promotion composes"
    (Pipeline.run plain).Sim.output
    (Pipeline.run promoted).Sim.output

let suite =
  ( "pipeline",
    [
      Alcotest.test_case "configuration inventory" `Quick
        test_config_inventory;
      Alcotest.test_case "run_all_configs" `Quick test_run_all_configs;
      Alcotest.test_case "data layout" `Quick test_data_layout;
      Alcotest.test_case "options compose with modules" `Quick
        test_compile_modules_options;
    ] )
