(** Tests for the Pawn front-end: lexer, parser, semantic checks and
    lowering. *)

module Token = Chow_frontend.Token
module Lexer = Chow_frontend.Lexer
module Parser = Chow_frontend.Parser
module Ast = Chow_frontend.Ast
module Check = Chow_frontend.Check
module Lower = Chow_frontend.Lower
module Diag = Chow_frontend.Diag
module Ir = Chow_ir.Ir

let tokens src = List.map fst (Lexer.tokenize src)

let test_lexer_basics () =
  Alcotest.(check int)
    "token count" 10
    (List.length (tokens "var x = 42; x = x;"));
  let ts = tokens "a <= b != c && d || !e" in
  Alcotest.(check bool)
    "operators" true
    (ts
    = Token.
        [
          IDENT "a"; LE; IDENT "b"; NE; IDENT "c"; ANDAND; IDENT "d"; OROR;
          BANG; IDENT "e"; EOF;
        ])

let test_lexer_comments () =
  let ts = tokens "x // line comment\n/* block\ncomment */ y" in
  Alcotest.(check bool)
    "comments skipped" true
    (ts = Token.[ IDENT "x"; IDENT "y"; EOF ])

let keywords =
  Token.
    [
      ("var", KW_VAR);
      ("proc", KW_PROC);
      ("export", KW_EXPORT);
      ("extern", KW_EXTERN);
      ("if", KW_IF);
      ("else", KW_ELSE);
      ("while", KW_WHILE);
      ("return", KW_RETURN);
      ("print", KW_PRINT);
    ]

let test_lexer_keywords () =
  Alcotest.(check bool)
    "keywords vs idents" true
    (tokens "while whiles"
    = Token.[ KW_WHILE; IDENT "whiles"; EOF ]);
  List.iter
    (fun (word, kw) ->
      Alcotest.(check bool) word true (tokens word = [ kw; Token.EOF ]))
    keywords;
  List.iter
    (fun word ->
      Alcotest.(check bool)
        (word ^ " is an identifier")
        true
        (tokens word = Token.[ IDENT word; EOF ]))
    [
      "variable"; "procs"; "exported"; "externs"; "iff"; "elsewhere";
      "returned"; "printer"; "_if"; "If";
    ]

let test_lexer_errors () =
  (match Lexer.tokenize "a $ b" with
  | _ -> Alcotest.fail "expected lexer error"
  | exception Lexer.Error (_, 1) -> ());
  (match Lexer.tokenize "a\n/* no end" with
  | _ -> Alcotest.fail "expected unterminated comment error"
  | exception Lexer.Error (_, _) -> ());
  (match
     Diag.catch (fun () ->
         Lexer.tokenize "proc main() {\n  print(99999999999999999999999);\n}")
   with
  | Ok _ -> Alcotest.fail "expected an out-of-range literal error"
  | Error e ->
      Alcotest.(check bool) "lex phase" true (e.Diag.phase = Diag.Lex);
      Alcotest.(check int) "line" 2 e.Diag.line;
      Alcotest.(check string)
        "message" "integer literal out of range" e.Diag.message);
  Alcotest.(check bool)
    "max_int still lexes" true
    (tokens (string_of_int max_int) = Token.[ INT max_int; EOF ])

(* a word lexes to a keyword token exactly when it is one of the nine *)
let prop_keyword_iff_listed =
  let gen =
    QCheck.Gen.(
      let letter =
        oneof [ char_range 'a' 'z'; char_range 'A' 'Z'; return '_' ]
      in
      let word =
        map2
          (fun c cs -> String.of_seq (List.to_seq (c :: cs)))
          letter
          (list_size (int_bound 6) (oneof [ letter; char_range '0' '9' ]))
      in
      (* random words almost never spell a keyword, so draw the nine
         directly half of the time *)
      oneof [ word; oneofl (List.map fst keywords) ])
  in
  QCheck.Test.make ~count:1000 ~name:"lexer: keyword token iff keyword word"
    (QCheck.make ~print:Fun.id gen) (fun word ->
      let expected =
        match List.assoc_opt word keywords with
        | Some kw -> kw
        | None -> Token.IDENT word
      in
      tokens word = [ expected; Token.EOF ])

let test_parser_precedence () =
  let prog = Parser.parse "proc f() { return 1 + 2 * 3 - 4; }" in
  match prog with
  | [ Ast.Dproc { p_body = [ Ast.Sreturn (Some e) ]; _ } ] ->
      let expected =
        Ast.Binop
          ( Ast.Sub,
            Ast.Binop
              (Ast.Add, Ast.Int 1, Ast.Binop (Ast.Mul, Ast.Int 2, Ast.Int 3)),
            Ast.Int 4 )
      in
      Alcotest.(check bool) "1 + 2*3 - 4" true (e = expected)
  | _ -> Alcotest.fail "unexpected parse"

let test_parser_else_if () =
  let prog =
    Parser.parse
      "proc f(x) { if (x == 1) { return 1; } else if (x == 2) { return 2; } \
       else { return 3; } }"
  in
  match prog with
  | [ Ast.Dproc { p_body = [ Ast.Sif (_, _, [ Ast.Sif (_, _, [ _ ]) ]) ]; _ } ]
    ->
      ()
  | _ -> Alcotest.fail "else-if chain shape"

let test_parser_array_vs_expr_stmt () =
  (* [g[e] = e] is a store; [g[e];] alone is an expression statement *)
  let prog = Parser.parse "var g[4]; proc f() { g[1] = 2; g[1]; }" in
  match prog with
  | [ _; Ast.Dproc { p_body = [ Ast.Sstore _; Ast.Sexpr (Ast.Index _) ]; _ } ]
    ->
      ()
  | _ -> Alcotest.fail "store vs index statement"

let test_parser_errors () =
  let expect_error src =
    match Parser.parse src with
    | _ -> Alcotest.failf "expected parse error for %S" src
    | exception Parser.Error _ -> ()
  in
  expect_error "proc f( { }";
  expect_error "proc f() { if x { } }";
  expect_error "var;";
  expect_error "proc f() { return 1 + ; }"

(* ----- diagnostics: phase, message and line ----- *)

let check_diag what src ~phase ~line message =
  match Diag.catch (fun () -> Parser.parse src) with
  | Ok _ -> Alcotest.failf "%s: expected a diagnostic" what
  | Error e ->
      Alcotest.(check string) (what ^ ": phase") (Diag.phase_name phase)
        (Diag.phase_name e.Diag.phase);
      Alcotest.(check string) (what ^ ": message") message e.Diag.message;
      Alcotest.(check int) (what ^ ": line") line e.Diag.line

(* a lexical error anywhere in the unit wins over an earlier syntax error *)
let test_diag_lex_after_syntax () =
  check_diag "stray character"
    "proc main() {\n  print(1 +);\n  var x = 2 $ 3;\n}\n"
    ~phase:Diag.Lex ~line:3 "unexpected character '$'";
  check_diag "unterminated comment"
    "proc main() {\n  return (;\n}\n/* never\nclosed\n"
    ~phase:Diag.Lex ~line:6 "unterminated comment";
  check_diag "out-of-range literal"
    "proc main() { return ; }\nproc f() { return 99999999999999999999; }"
    ~phase:Diag.Lex ~line:2 "integer literal out of range";
  check_diag "syntax error alone"
    "proc main() {\n  print(1 +);\n}\n"
    ~phase:Diag.Parse ~line:2 "expected expression but found )"

(* [g[i] ...] is parsed once as a store target, then again from the
   saved cursor as an expression statement *)
let test_diag_mark_reset () =
  (match
     Parser.parse
       "var g[4];\nproc main() {\n  var i = 1;\n  g[i] + 1;\n  g[i] = 2;\n}"
   with
  | [
   _;
   Ast.Dproc
     {
       p_body =
         [
           Ast.Slocal _;
           Ast.Sexpr
             (Ast.Binop (Ast.Add, Ast.Index ("g", Ast.Var "i"), Ast.Int 1));
           Ast.Sstore ("g", Ast.Var "i", Ast.Int 2);
         ];
       _;
     };
  ] ->
      ()
  | _ -> Alcotest.fail "g[i] + 1 then g[i] = 2");
  check_diag "error after reset"
    "var g[4];\nproc main() {\n  g[1]\n  + ;\n}"
    ~phase:Diag.Parse ~line:4 "expected expression but found ;";
  check_diag "error inside the index"
    "var g[4];\nproc main() {\n  g[1 = 2;\n}"
    ~phase:Diag.Parse ~line:3 "expected ] but found =";
  check_diag "lex error after reset"
    "var g[4];\nproc main() {\n  g[1] + @;\n}"
    ~phase:Diag.Lex ~line:3 "unexpected character '@'"

let test_diag_ident_last () =
  Alcotest.(check bool)
    "tokens" true
    (Lexer.tokenize "x" = Token.[ (IDENT "x", 1); (EOF, 1) ]);
  check_diag "statement" "proc main() {\n  x" ~phase:Diag.Parse ~line:2
    "expected ; but found <eof>";
  check_diag "global" "var g\n" ~phase:Diag.Parse ~line:2
    "expected ; but found <eof>";
  check_diag "top level" "\n\nx" ~phase:Diag.Parse ~line:3
    "expected top-level declaration but found x"

let test_diag_after_block_comment () =
  check_diag "syntax" "/* one\n   two\n   three */ proc main() {\n  print(1)\n}"
    ~phase:Diag.Parse ~line:5 "expected ; but found }";
  check_diag "lexical" "/*\n\n*/\nproc main() { print(#); }" ~phase:Diag.Lex
    ~line:4 "unexpected character '#'";
  Alcotest.(check (list int))
    "token lines" [ 3; 4; 4 ]
    (List.map snd (Lexer.tokenize "// a\n/* b\n */ x\n y"))

(* the front end allocates only short-lived values: with a minor heap
   larger than a unit's allocation, no call on the way from source to IR
   forces a minor collection (building an array over 256 words from young
   values does) *)
let test_frontend_no_forced_minor_gc () =
  let saved = Gc.get () in
  Fun.protect
    ~finally:(fun () -> Gc.set saved)
    (fun () ->
      Gc.set { saved with Gc.minor_heap_size = 1 lsl 20 };
      List.iter
        (fun (w : Chow_workloads.Workloads.t) ->
          Gc.minor ();
          let before = (Gc.quick_stat ()).Gc.minor_collections in
          ignore (Lower.compile_unit w.Chow_workloads.Workloads.source);
          Alcotest.(check int)
            (w.Chow_workloads.Workloads.name ^ ": minor collections")
            before (Gc.quick_stat ()).Gc.minor_collections)
        Chow_workloads.Workloads.all)

let check_error src =
  match Lower.compile_unit src with
  | _ -> Alcotest.failf "expected semantic error"
  | exception Check.Error _ -> ()

let test_check_errors () =
  check_error "proc main() { x = 1; }";
  check_error "proc main() { var x = y; }";
  check_error "proc f() {} proc main() { f(1); }" (* arity *);
  check_error "var g; proc main() { g[0] = 1; }" (* scalar indexed *);
  check_error "var g[3]; proc main() { g = 1; }" (* array assigned *);
  check_error "proc f() {} proc main() { var x = f; }" (* proc as value *);
  check_error "proc f() {} proc f() {} proc main() {}" (* duplicate *);
  check_error "proc main(x) {}" (* main with params *);
  check_error "proc f() {}" (* no main *);
  check_error "proc f(a, a) { return a; } proc main() {}" (* dup param *)

let test_check_shadowing_ok () =
  (* nested-block shadowing and reuse after the block are legal *)
  let ir =
    Lower.compile_unit
      "proc main() { var x = 1; if (x == 1) { var x = 2; print(x); } \
       print(x); }"
  in
  Alcotest.(check int) "one proc" 1 (List.length ir.Ir.procs)

let test_lower_zero_init () =
  let ir = Lower.compile_unit "proc main() { var x; print(x); }" in
  let main = List.hd ir.Ir.procs in
  let has_li_zero =
    Array.exists
      (fun b ->
        List.exists
          (function Ir.Li (_, 0) -> true | _ -> false)
          b.Ir.insts)
      main.Ir.blocks
  in
  Alcotest.(check bool) "uninitialised local is zeroed" true has_li_zero

let test_lower_short_circuit () =
  (* (a && b) must not evaluate b when a is false: division by zero on the
     right operand is the witness *)
  let src =
    "proc main() { var a = 0; var b = 7; if (a != 0 && 10 / a > b) { \
     print(1); } else { print(2); } }"
  in
  let c = Chow_compiler.Pipeline.compile_source Chow_compiler.Config.baseline (Chow_compiler.Pipeline.Src src) in
  let o = Chow_compiler.Pipeline.run c in
  Alcotest.(check (list int)) "no div-by-zero" [ 2 ] o.Chow_sim.Sim.output

let test_lower_call_shapes () =
  let ir =
    Lower.compile_unit
      "proc g(a) { return a; } proc main() { var p = &g; p(1); print(p(2)); \
       g(3); }"
  in
  let main = List.find (fun p -> p.Ir.pname = "main") ir.Ir.procs in
  let calls =
    Array.to_list main.Ir.blocks
    |> List.concat_map (fun b ->
           List.filter_map
             (function Ir.Call { target; _ } -> Some target | _ -> None)
             b.Ir.insts)
  in
  let indirect =
    List.length
      (List.filter (function Ir.Indirect _ -> true | _ -> false) calls)
  in
  let direct =
    List.length
      (List.filter (function Ir.Direct _ -> true | _ -> false) calls)
  in
  Alcotest.(check int) "indirect calls" 2 indirect;
  Alcotest.(check int) "direct calls" 1 direct;
  Alcotest.(check (list string)) "address taken" [ "g" ]
    (Ir.address_taken ir)

let test_lower_verifies () =
  (* every lowered program passes the IR verifier (Lower runs it) and the
     entry block is never a branch target *)
  let ir =
    Lower.compile_unit
      "proc main() { var i = 0; while (i < 3) { i = i + 1; } print(i); }"
  in
  let main = List.hd ir.Ir.procs in
  Array.iter
    (fun b ->
      List.iter
        (fun l ->
          Alcotest.(check bool) "no edge to entry" false (l = Ir.entry_label))
        (Ir.successors b.Ir.term))
    main.Ir.blocks

let suite =
  ( "frontend",
    [
      Alcotest.test_case "lexer basics" `Quick test_lexer_basics;
      Alcotest.test_case "lexer comments" `Quick test_lexer_comments;
      Alcotest.test_case "lexer keywords" `Quick test_lexer_keywords;
      QCheck_alcotest.to_alcotest prop_keyword_iff_listed;
      Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
      Alcotest.test_case "parser precedence" `Quick test_parser_precedence;
      Alcotest.test_case "parser else-if" `Quick test_parser_else_if;
      Alcotest.test_case "parser array store vs expr" `Quick
        test_parser_array_vs_expr_stmt;
      Alcotest.test_case "parser errors" `Quick test_parser_errors;
      Alcotest.test_case "diagnostics: lexical error wins" `Quick
        test_diag_lex_after_syntax;
      Alcotest.test_case "diagnostics: mark and reset" `Quick
        test_diag_mark_reset;
      Alcotest.test_case "diagnostics: identifier last" `Quick
        test_diag_ident_last;
      Alcotest.test_case "diagnostics: after a block comment" `Quick
        test_diag_after_block_comment;
      Alcotest.test_case "front end forces no minor collection" `Quick
        test_frontend_no_forced_minor_gc;
      Alcotest.test_case "semantic errors" `Quick test_check_errors;
      Alcotest.test_case "nested shadowing" `Quick test_check_shadowing_ok;
      Alcotest.test_case "zero initialisation" `Quick test_lower_zero_init;
      Alcotest.test_case "short-circuit &&" `Quick test_lower_short_circuit;
      Alcotest.test_case "direct/indirect calls" `Quick test_lower_call_shapes;
      Alcotest.test_case "lowered CFG shape" `Quick test_lower_verifies;
    ] )
