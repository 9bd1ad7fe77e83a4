(** Tests for the CFG analyses: successor/predecessor structure, reverse
    postorder, dominators, and natural-loop recognition. *)

module Ir = Chow_ir.Ir
module Builder = Chow_ir.Builder
module Cfg = Chow_ir.Cfg
module Dom = Chow_ir.Dom
module Loops = Chow_ir.Loops
module Verify = Chow_ir.Verify

(* a diamond: 0 -> {1,2} -> 3(ret) *)
let diamond () =
  let b = Builder.create "diamond" in
  let v = Builder.new_vreg b in
  Builder.emit b (Ir.Li (v, 0));
  let l1 = Builder.new_block b in
  let l2 = Builder.new_block b in
  let l3 = Builder.new_block b in
  Builder.terminate b (Ir.Cbranch (Ir.Lt, Ir.Reg v, Ir.Imm 1, l1, l2));
  Builder.switch_to b l1;
  Builder.terminate b (Ir.Jump l3);
  Builder.switch_to b l2;
  Builder.terminate b (Ir.Jump l3);
  Builder.switch_to b l3;
  Builder.terminate b (Ir.Ret None);
  Builder.finish b

(* 0 -> 1; 1 -> {2(body), 3(exit)}; 2 -> 1 — a while loop *)
let while_loop () =
  let b = Builder.create "loop" in
  let v = Builder.new_vreg b in
  Builder.emit b (Ir.Li (v, 0));
  let head = Builder.new_block b in
  let body = Builder.new_block b in
  let exit = Builder.new_block b in
  Builder.terminate b (Ir.Jump head);
  Builder.switch_to b head;
  Builder.terminate b (Ir.Cbranch (Ir.Lt, Ir.Reg v, Ir.Imm 10, body, exit));
  Builder.switch_to b body;
  Builder.emit b (Ir.Binop (Ir.Add, v, Ir.Reg v, Ir.Imm 1));
  Builder.terminate b (Ir.Jump head);
  Builder.switch_to b exit;
  Builder.terminate b (Ir.Ret None);
  Builder.finish b

let test_diamond_structure () =
  let p = diamond () in
  Verify.check_proc p;
  let cfg = Cfg.of_proc p in
  (* Builder.finish renumbers in DFS order: entry 0, first arm 1, join 2,
     second arm 3 *)
  Alcotest.(check int) "blocks" 4 cfg.Cfg.nblocks;
  Alcotest.(check int) "edges" 4 (Cfg.edge_count cfg);
  Alcotest.(check (list int)) "preds of join" [ 3; 1 ]
    (List.sort (fun a b -> compare b a) (Cfg.preds cfg 2));
  Alcotest.(check (list int)) "exits" [ 2 ] cfg.Cfg.exits;
  Alcotest.(check int) "rpo starts at entry" 0 cfg.Cfg.rpo.(0)

let test_unreachable_pruned () =
  let b = Builder.create "dead" in
  let l1 = Builder.new_block b in
  let _dead = Builder.new_block b in
  Builder.terminate b (Ir.Jump l1);
  Builder.switch_to b l1;
  Builder.terminate b (Ir.Ret None);
  let p = Builder.finish b in
  Alcotest.(check int) "dead block pruned" 2 (Ir.nblocks p)

let test_code_after_return_dropped () =
  let b = Builder.create "after_ret" in
  let v = Builder.new_vreg b in
  Builder.terminate b (Ir.Ret None);
  Builder.emit b (Ir.Li (v, 1));
  let p = Builder.finish b in
  Alcotest.(check int) "no insts after ret" 0
    (List.length p.Ir.blocks.(0).Ir.insts)

let test_dominators_diamond () =
  let p = diamond () in
  let cfg = Cfg.of_proc p in
  let dom = Dom.compute cfg in
  Alcotest.(check int) "idom(1)" 0 (Dom.idom dom 1);
  Alcotest.(check int) "idom(3)" 0 (Dom.idom dom 3);
  Alcotest.(check int) "idom(join)" 0 (Dom.idom dom 2);
  Alcotest.(check bool) "entry dominates all" true (Dom.dominates dom 0 2);
  Alcotest.(check bool) "arm does not dominate join" false
    (Dom.dominates dom 1 2);
  Alcotest.(check bool) "reflexive" true (Dom.dominates dom 2 2)

let test_loop_recognition () =
  let p = while_loop () in
  let cfg = Cfg.of_proc p in
  let dom = Dom.compute cfg in
  let loops = Loops.compute cfg dom in
  Alcotest.(check int) "one loop" 1 (List.length loops.Loops.loops);
  let l = List.hd loops.Loops.loops in
  Alcotest.(check int) "header" 1 l.Loops.header;
  Alcotest.(check (list int)) "body" [ 1; 2 ]
    (Chow_support.Bitset.elements l.Loops.body);
  Alcotest.(check int) "depth head" 1 (Loops.depth loops 1);
  Alcotest.(check int) "depth body" 1 (Loops.depth loops 2);
  Alcotest.(check int) "depth entry" 0 (Loops.depth loops 0);
  Alcotest.(check int) "depth exit" 0 (Loops.depth loops 3)

let test_nested_loops_from_source () =
  let ir =
    Chow_frontend.Lower.compile_unit
      {|
proc main() {
  var i = 0;
  var s = 0;
  while (i < 3) {
    var j = 0;
    while (j < 3) {
      s = s + 1;
      j = j + 1;
    }
    i = i + 1;
  }
  print(s);
}
|}
  in
  let p = List.hd ir.Ir.procs in
  let cfg = Cfg.of_proc p in
  let dom = Dom.compute cfg in
  let loops = Loops.compute cfg dom in
  Alcotest.(check int) "two loops" 2 (List.length loops.Loops.loops);
  let maxdepth =
    Array.fold_left max 0 (Array.init (Ir.nblocks p) (Loops.depth loops))
  in
  Alcotest.(check int) "nesting depth 2" 2 maxdepth

let test_verify_catches_bad_label () =
  let p = diamond () in
  p.Ir.blocks.(1).Ir.term <- Ir.Jump 99;
  match Verify.check_proc p with
  | () -> Alcotest.fail "expected Ill_formed"
  | exception Verify.Ill_formed _ -> ()

let test_verify_catches_bad_vreg () =
  let p = diamond () in
  p.Ir.blocks.(1).Ir.insts <- [ Ir.Li (42, 0) ];
  match Verify.check_proc p with
  | () -> Alcotest.fail "expected Ill_formed"
  | exception Verify.Ill_formed _ -> ()

let test_verify_undefined_callee () =
  let b = Builder.create "main" ~exported:true in
  Builder.emit b
    (Ir.Call { target = Ir.Direct "nowhere"; args = []; ret = None });
  Builder.terminate b (Ir.Ret None);
  let p = Builder.finish b in
  let prog = { Ir.procs = [ p ]; globals = []; externs = [] } in
  match Verify.check_prog prog with
  | () -> Alcotest.fail "expected Ill_formed"
  | exception Verify.Ill_formed _ -> ()

(* the program-level checks report the same message, naming the same
   procedure first, whatever the lookup behind them *)
let proc_calling ?(taken = []) name callees =
  let b = Builder.create name ~exported:(name = "main") in
  List.iter
    (fun f ->
      Builder.emit b (Ir.Call { target = Ir.Direct f; args = []; ret = None }))
    callees;
  List.iter
    (fun f ->
      let v = Builder.new_vreg b in
      Builder.emit b (Ir.Addr_of_proc (v, f)))
    taken;
  Builder.terminate b (Ir.Ret None);
  Builder.finish b

let check_prog_message msg ?(externs = []) procs =
  let prog = { Ir.procs; globals = []; externs } in
  match Verify.check_prog prog with
  | () -> Alcotest.failf "expected Ill_formed %S" msg
  | exception Verify.Ill_formed m -> Alcotest.(check string) "message" msg m

(* [a] is the first procedure whose name repeats, though [b]'s repeat
   comes first and [c] is the last repeated name *)
let test_verify_duplicate_message () =
  check_prog_message "duplicate procedure a"
    (List.map
       (fun nm -> proc_calling nm [])
       [ "main"; "a"; "b"; "b"; "c"; "a"; "c" ])

let test_verify_undefined_call_message () =
  check_prog_message "f: call to undefined procedure nowhere"
    ~externs:[ "outside" ]
    [
      proc_calling "main" [ "f"; "outside" ];
      proc_calling "f" [ "outside"; "main"; "nowhere"; "elsewhere" ];
      proc_calling "g" [ "elsewhere" ];
    ]

let test_verify_undefined_taken_message () =
  (* calls are checked before taken addresses; an extern's address is
     known *)
  check_prog_message "address taken of undefined procedure ghost"
    ~externs:[ "outside" ]
    [
      proc_calling "main" [ "f" ] ~taken:[ "outside"; "f" ];
      proc_calling "f" [] ~taken:[ "ghost"; "phantom" ];
    ];
  let prog =
    {
      Ir.procs = [ proc_calling "main" [ "outside" ] ~taken:[ "outside" ] ];
      globals = [];
      externs = [ "outside" ];
    }
  in
  Verify.check_prog prog

let suite =
  ( "cfg",
    [
      Alcotest.test_case "diamond structure" `Quick test_diamond_structure;
      Alcotest.test_case "unreachable blocks pruned" `Quick
        test_unreachable_pruned;
      Alcotest.test_case "code after return dropped" `Quick
        test_code_after_return_dropped;
      Alcotest.test_case "dominators on diamond" `Quick
        test_dominators_diamond;
      Alcotest.test_case "loop recognition" `Quick test_loop_recognition;
      Alcotest.test_case "nested loop depths" `Quick
        test_nested_loops_from_source;
      Alcotest.test_case "verify: bad label" `Quick
        test_verify_catches_bad_label;
      Alcotest.test_case "verify: bad vreg" `Quick test_verify_catches_bad_vreg;
      Alcotest.test_case "verify: undefined callee" `Quick
        test_verify_undefined_callee;
      Alcotest.test_case "verify: duplicate procedure message" `Quick
        test_verify_duplicate_message;
      Alcotest.test_case "verify: undefined call message" `Quick
        test_verify_undefined_call_message;
      Alcotest.test_case "verify: undefined taken address message" `Quick
        test_verify_undefined_taken_message;
    ] )
