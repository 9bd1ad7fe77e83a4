(** Separate-compilation tests (§3, §7): units allocated independently,
    cross-unit calls through [extern] declarations under the default
    convention, linked at the assembly level. *)

module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Ipra = Chow_core.Ipra
module Callgraph = Chow_core.Callgraph
module Sim = Chow_sim.Sim

let unit_main =
  {|
extern proc square(x);
extern proc cube(x);

proc local_helper(a, b) { return a * b + square(a); }

proc main() {
  print(square(5));
  print(cube(3));
  print(local_helper(2, 6));
}
|}

let unit_math =
  {|
export proc square(x) { return x * x; }
export proc cube(x) { return x * square(x); }
|}

let test_two_units_run () =
  let c = Pipeline.compile_source Config.o3_sw (Pipeline.Srcs [ unit_main; unit_math ]) in
  let o = Pipeline.run c in
  Alcotest.(check (list int)) "output" [ 25; 27; 16 ] o.Sim.output

let test_cross_unit_is_open () =
  let c = Pipeline.compile_source Config.o3_sw (Pipeline.Srcs [ unit_main; unit_math ]) in
  (* within the math unit, [square] is exported hence open; within the main
     unit, [local_helper] is closed despite calling an extern *)
  let find_result name =
    List.find_map
      (fun (alloc : Ipra.t) -> Ipra.find alloc name)
      (Pipeline.allocs c)
  in
  (match find_result "square" with
  | Some r -> Alcotest.(check bool) "square open" true r.Chow_core.Alloc_types.r_open
  | None -> Alcotest.fail "square not allocated");
  match find_result "local_helper" with
  | Some r ->
      Alcotest.(check bool) "local_helper closed" false
        r.Chow_core.Alloc_types.r_open
  | None -> Alcotest.fail "local_helper not allocated"

let test_separate_equals_whole_program () =
  (* the same program as one unit and as two must print the same thing *)
  let whole =
    {|
proc square(x) { return x * x; }
proc cube(x) { return x * square(x); }
proc local_helper(a, b) { return a * b + square(a); }
proc main() {
  print(square(5));
  print(cube(3));
  print(local_helper(2, 6));
}
|}
  in
  let one = Pipeline.run (Pipeline.compile_source Config.o3_sw (Pipeline.Src whole)) in
  let two =
    Pipeline.run (Pipeline.compile_source Config.o3_sw (Pipeline.Srcs [ unit_main; unit_math ]))
  in
  Alcotest.(check (list int))
    "same behaviour" one.Sim.output two.Sim.output

let test_missing_unit_fails () =
  match Pipeline.compile_source Config.baseline (Pipeline.Srcs [ unit_main ]) with
  | _ -> Alcotest.fail "expected undefined procedure"
  | exception Chow_codegen.Link.Undefined_procedure _ -> ()

let test_workload_split_across_units () =
  (* split the nim workload: helpers into a library unit, driver in main.
     IPRA runs per unit; behaviour must match the whole-program build. *)
  let lib =
    {|
export proc encode(a, b, c) {
  return a * 256 + b * 16 + c;
}
export proc heap_of(pos, which) {
  if (which == 0) { return pos / 256; }
  if (which == 1) { return (pos / 16) % 16; }
  return pos % 16;
}
|}
  in
  let main_unit =
    {|
extern proc encode(a, b, c);
extern proc heap_of(pos, which);
proc main() {
  var pos = encode(3, 5, 7);
  print(pos);
  print(heap_of(pos, 0));
  print(heap_of(pos, 1));
  print(heap_of(pos, 2));
}
|}
  in
  let o = Pipeline.run (Pipeline.compile_source Config.o3_sw (Pipeline.Srcs [ main_unit; lib ])) in
  Alcotest.(check (list int)) "split nim helpers" [ 3 * 256 + 5 * 16 + 7; 3; 5; 7 ]
    o.Sim.output

(* ----- link rules ----- *)

(* [f] is defined in both units: the linker must not pick one body for the
   calls and the other's labels for the branches *)
let dup_main =
  {|extern proc g(x);
proc f(x) { if (x > 0) { return 1; } return 2; }
proc main() { print(f(1)); print(f(0)); print(g(1)); print(g(0)); }|}

let dup_other =
  {|proc f(x) { var y = x * 3; if (x > 0) { y = y + 10; } else { y = y + 20; } return y; }
export proc g(x) { return f(x); }|}

(* [h] is not exported, so under IPRA it is closed and takes its
   arguments under a custom convention the caller's unit cannot know *)
let closed_main =
  {|extern proc h(x);
proc main() { var s = 0; var i = 0;
  while (i < 5) { s = s + h(i) * i; i = i + 1; } print(s); print(i); }|}

let closed_callee =
  "proc h(x) { var a = x * 2; var b = x + 7; var c = a * b; return c - a + b; }"

let contains = Test_server.contains

let expect_link_error what needles config srcs =
  match Pipeline.compile_source config (Pipeline.Srcs srcs) with
  | _ -> Alcotest.failf "%s: linked" what
  | exception Chow_codegen.Link.Error msg ->
      List.iter
        (fun needle ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: message %S names %S" what msg needle)
            true (contains needle msg))
        needles

let test_duplicate_definition_rejected () =
  List.iter
    (fun config ->
      expect_link_error "f defined twice" [ "f"; "more than once" ] config
        [ dup_main; dup_other ])
    [ Config.baseline; Config.o3_sw ]

let test_closed_extern_rejected () =
  expect_link_error "closed h" [ "h"; "export" ] Config.o3
    [ closed_main; closed_callee ];
  (* under -O2 every procedure is open: the pair still links, correctly *)
  let o2 =
    Pipeline.run
      (Pipeline.compile_source Config.baseline
         (Pipeline.Srcs [ closed_main; closed_callee ]))
  in
  Alcotest.(check (list int)) "-O2 output" [ 660; 5 ] o2.Sim.output;
  let exported =
    Pipeline.run
      (Pipeline.compile_source Config.o3
         (Pipeline.Srcs [ closed_main; "export " ^ closed_callee ]))
  in
  Alcotest.(check (list int)) "-O3 with export" [ 660; 5 ] exported.Sim.output

(* the same rules through [pawnc build -c] and [pawnc link]: exit 2 *)
let test_cli_link_errors_exit_2 () =
  let pawnc = Filename.quote (Test_server.bin_exe "pawnc") in
  Test_server.with_dir "linkrules" @@ fun dir ->
  let write name text =
    let path = Filename.concat dir name in
    Out_channel.with_open_text path (fun oc -> output_string oc text);
    Filename.quote path
  in
  let obj name = Filename.quote (Filename.concat dir (name ^ ".pawno")) in
  let sh fmt =
    Printf.ksprintf (fun cmd -> Sys.command (cmd ^ " >/dev/null 2>&1")) fmt
  in
  let a = write "a.pawn" dup_main and b = write "b.pawn" dup_other in
  Alcotest.(check int) "build -c a b" 0 (sh "%s build -c %s %s" pawnc a b);
  Alcotest.(check int) "link a b: f defined twice" 2
    (sh "%s link --run %s %s" pawnc (obj "a") (obj "b"));
  let c = write "c2.pawn" closed_main and d = write "d2.pawn" closed_callee in
  Alcotest.(check int) "build -c c2 d2" 0 (sh "%s build -c %s %s" pawnc c d);
  Alcotest.(check int) "-O2: link c2 d2" 0
    (sh "%s link --run %s %s" pawnc (obj "c2") (obj "d2"));
  Alcotest.(check int) "build --O3 -c c2 d2" 0
    (sh "%s build --O3 -c %s %s" pawnc c d);
  Alcotest.(check int) "-O3: link c2 d2, h closed" 2
    (sh "%s link --run %s %s" pawnc (obj "c2") (obj "d2"))

(* the daemon answers both rules as a ["link"] error *)
let test_daemon_link_errors () =
  let module Protocol = Chow_server.Protocol in
  Test_server.with_server "linkrules" (fun socket_path ->
      Chow_server.Client.with_connection ~socket_path (fun c ->
          List.iter
            (fun (what, srcs, needle) ->
              match Chow_server.Client.request c (Test_server.compile_req srcs) with
              | Protocol.Error { kind = "link"; message } ->
                  Alcotest.(check bool)
                    (Printf.sprintf "%s: %S names %S" what message needle)
                    true (contains needle message)
              | _ -> Alcotest.failf "%s: not a link error" what)
            [
              ("f defined twice", [ dup_main; dup_other ], "procedure f");
              ("closed h", [ closed_main; closed_callee ], "procedure h");
            ]))

let suite =
  ( "modules",
    [
      Alcotest.test_case "two units link and run" `Quick test_two_units_run;
      Alcotest.test_case "cross-unit openness" `Quick test_cross_unit_is_open;
      Alcotest.test_case "separate == whole program" `Quick
        test_separate_equals_whole_program;
      Alcotest.test_case "missing unit fails at link" `Quick
        test_missing_unit_fails;
      Alcotest.test_case "workload split across units" `Quick
        test_workload_split_across_units;
      Alcotest.test_case "procedure defined twice rejected" `Quick
        test_duplicate_definition_rejected;
      Alcotest.test_case "cross-unit call into closed procedure rejected"
        `Quick test_closed_extern_rejected;
      Alcotest.test_case "cli: link errors exit 2" `Quick
        test_cli_link_errors_exit_2;
      Alcotest.test_case "daemon: link errors answered as link" `Quick
        test_daemon_link_errors;
    ] )
