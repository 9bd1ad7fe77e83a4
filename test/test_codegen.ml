(** Tests for the code-generation layer: parallel-move sequentialisation,
    frame layout, and linking. *)

module Machine = Chow_machine.Machine
module Asm = Chow_codegen.Asm
module Pm = Chow_codegen.Parallel_move
module Link = Chow_codegen.Link
module Ir = Chow_ir.Ir

let t0 = Machine.t0
let t1 = Machine.t0 + 1
let t2 = Machine.t0 + 2
let temp = Machine.x1

(* interpret a move sequence over an abstract register file *)
let interpret insts initial =
  let regs = Hashtbl.create 8 in
  List.iter (fun (r, v) -> Hashtbl.replace regs r v) initial;
  let get r = Option.value ~default:(-1000 - r) (Hashtbl.find_opt regs r) in
  List.iter
    (fun i ->
      match i with
      | Asm.Move (d, s) -> Hashtbl.replace regs d (get s)
      | Asm.Li (d, n) -> Hashtbl.replace regs d n
      | Asm.Lw (d, _, off, _) -> Hashtbl.replace regs d (10_000 + off)
      | _ -> Alcotest.fail "unexpected instruction in move sequence")
    insts;
  get

let test_parallel_swap () =
  (* the classic: t0 <-> t1 must go through the scratch *)
  let insts =
    Pm.resolve ~temp [ (t0, Pm.From_reg t1); (t1, Pm.From_reg t0) ]
  in
  let get = interpret insts [ (t0, 1); (t1, 2) ] in
  Alcotest.(check int) "t0 gets old t1" 2 (get t0);
  Alcotest.(check int) "t1 gets old t0" 1 (get t1);
  Alcotest.(check int) "three moves" 3 (List.length insts)

let test_parallel_rotate () =
  let insts =
    Pm.resolve ~temp
      [ (t0, Pm.From_reg t1); (t1, Pm.From_reg t2); (t2, Pm.From_reg t0) ]
  in
  let get = interpret insts [ (t0, 10); (t1, 20); (t2, 30) ] in
  Alcotest.(check int) "t0" 20 (get t0);
  Alcotest.(check int) "t1" 30 (get t1);
  Alcotest.(check int) "t2" 10 (get t2)

let test_parallel_chain_no_temp () =
  (* t0 <- t1 <- t2 is a chain, resolvable without the scratch *)
  let insts =
    Pm.resolve ~temp [ (t0, Pm.From_reg t1); (t1, Pm.From_reg t2) ]
  in
  Alcotest.(check int) "two moves" 2 (List.length insts);
  let get = interpret insts [ (t0, 1); (t1, 2); (t2, 3) ] in
  Alcotest.(check int) "t0" 2 (get t0);
  Alcotest.(check int) "t1" 3 (get t1);
  List.iter
    (fun i ->
      match i with
      | Asm.Move (d, _) ->
          Alcotest.(check bool) "scratch unused" true (d <> temp)
      | _ -> ())
    insts

let test_parallel_identity_dropped () =
  let insts = Pm.resolve ~temp [ (t0, Pm.From_reg t0) ] in
  Alcotest.(check int) "no code" 0 (List.length insts)

let test_parallel_constants_after_shuffle () =
  (* constants land after the register shuffle so they cannot be clobbered *)
  let insts =
    Pm.resolve ~temp
      [ (t0, Pm.From_imm 7); (t1, Pm.From_reg t0); (t2, Pm.From_slot (3, Asm.Tscalar)) ]
  in
  let get = interpret insts [ (t0, 42) ] in
  Alcotest.(check int) "t1 got the pre-constant t0" 42 (get t1);
  Alcotest.(check int) "t0 is the constant" 7 (get t0);
  Alcotest.(check int) "t2 loaded from slot 3" 10_003 (get t2)

(* randomised: any permutation-with-sources resolves correctly *)
let prop_parallel_random =
  QCheck.Test.make ~count:500 ~name:"random parallel moves are faithful"
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 8)
           (pair (int_bound 7) (int_bound 9 >>= fun s -> return s)))
       ~print:(fun moves ->
         String.concat "; "
           (List.map (fun (d, s) -> Printf.sprintf "r%d <- %d" d s) moves)))
    (fun raw ->
      (* distinct destinations; sources 0..7 are registers, 8..9 constants *)
      let moves =
        List.sort_uniq (fun (a, _) (b, _) -> compare a b) raw
        |> List.map (fun (d, s) ->
               ( t0 + d,
                 if s < 8 then Pm.From_reg (t0 + s) else Pm.From_imm s ))
      in
      let insts = Pm.resolve ~temp moves in
      let initial = List.init 8 (fun i -> (t0 + i, 100 + i)) in
      let get = interpret insts initial in
      List.for_all
        (fun (d, src) ->
          match src with
          | Pm.From_reg s -> get d = 100 + (s - t0)
          | Pm.From_imm n -> get d = n
          | Pm.From_slot _ | Pm.From_proc _ -> true)
        moves)

(* ----- frame layout ----- *)

let frame_of src proc_name =
  let compiled =
    Chow_compiler.Pipeline.compile_source Chow_compiler.Config.baseline (Chow_compiler.Pipeline.Src src)
  in
  let res =
    List.find_map
      (fun (alloc : Chow_core.Ipra.t) ->
        Chow_core.Ipra.find alloc proc_name)
      (Chow_compiler.Pipeline.allocs compiled)
    |> Option.get
  in
  (Chow_codegen.Frame.build res, res)

let test_frame_leaf_is_empty () =
  let frame, _ =
    frame_of "proc leaf(a) { return a + 1; } proc main() { print(leaf(1)); }"
      "leaf"
  in
  Alcotest.(check int) "leaf frame empty" 0 frame.Chow_codegen.Frame.size

let test_frame_outgoing_args () =
  let frame, _ =
    frame_of
      {|
proc wide(a, b, c, d, e, f) { return a + b + c + d + e + f; }
proc main() { print(wide(1, 2, 3, 4, 5, 6)); }
|}
      "main"
  in
  (* main's frame must reserve at least the 6-argument outgoing area *)
  Alcotest.(check bool) "room for outgoing args" true
    (frame.Chow_codegen.Frame.size >= 6)

let test_frame_incoming_args_above () =
  let frame, res =
    frame_of
      {|
proc wide(a, b, c, d, e, f) { return a + b + c + d + e + f; }
proc main() { print(wide(1, 2, 3, 4, 5, 6)); }
|}
      "wide"
  in
  ignore res;
  Alcotest.(check int) "incoming arg 5 above the frame"
    (frame.Chow_codegen.Frame.size + 5)
    (Chow_codegen.Frame.incoming_arg frame 5)

(* ----- linking ----- *)

let test_link_resolves_everything () =
  let compiled =
    Chow_compiler.Pipeline.compile_source Chow_compiler.Config.baseline
      (Chow_compiler.Pipeline.Src {|
var g = 2;
proc f(x) { return x * g; }
proc main() { var p = &f; print(p(10)); print(f(1)); }
|})
  in
  let prog = (Chow_compiler.Pipeline.program compiled) in
  Array.iteri
    (fun pc i ->
      match i with
      | Asm.Jal _ | Asm.Lproc _ ->
          Alcotest.failf "unresolved symbolic instruction at %d" pc
      | Asm.J l | Asm.B (_, _, _, l) ->
          Alcotest.(check bool) "branch target in range" true
            (l >= 0 && l < Array.length prog.Asm.code)
      | _ -> ())
    prog.Asm.code;
  Alcotest.(check bool) "metas for both procs + main" true
    (List.length prog.Asm.metas = 2)

(* hand-built procedures, as a tampered artifact could carry them *)
let proc name items = { Asm.pc_name = name; pc_items = items }

let link_error procs =
  match Link.link ~metas:[] procs ~data_size:0 ~data_init:[] with
  | _ -> None
  | exception Link.Error msg -> Some msg

let test_link_rejects_bad_labels () =
  let main items = [ proc "main" (Asm.Label 0 :: items) ] in
  let rejected what expected procs =
    Alcotest.(check (option string)) what (Some expected) (link_error procs)
  in
  let undefined l = Printf.sprintf "main: branch to label %d, which it does not define" l in
  (* label 1 is below the item count but main never defines it *)
  rejected "undefined label" (undefined 1)
    (main [ Asm.Inst (Asm.J 1); Asm.Inst Asm.Jr ]);
  (* far past the item count: rejected without sizing anything by it *)
  rejected "label past the item count" (undefined max_int)
    (main [ Asm.Inst (Asm.B (Ir.Eq, 0, 0, max_int)); Asm.Inst Asm.Jr ]);
  rejected "negative label" (undefined (-1)) (main [ Asm.Inst (Asm.J (-1)) ]);
  (* a label of another procedure is not this one's *)
  rejected "label of another procedure" (undefined 3)
    (main [ Asm.Inst (Asm.J 3); Asm.Inst Asm.Jr ]
    @ [ proc "f" [ Asm.Label 0; Asm.Inst Asm.Jr; Asm.Inst Asm.Jr;
                   Asm.Label 3; Asm.Inst Asm.Jr ] ]);
  rejected "label defined past the item count" "main: label 9 is out of range"
    (main [ Asm.Label 9; Asm.Inst Asm.Jr ]);
  rejected "label defined twice" "main: label 0 is defined more than once"
    (main [ Asm.Label 0; Asm.Inst Asm.Jr ]);
  rejected "procedure defined twice" "procedure main is defined more than once"
    (main [ Asm.Inst Asm.Jr ] @ main [ Asm.Inst Asm.Jr ]);
  Alcotest.(check (option string)) "well-formed links" None
    (link_error (main [ Asm.Inst (Asm.J 0) ]))

let suite =
  ( "codegen",
    [
      Alcotest.test_case "parallel move: swap" `Quick test_parallel_swap;
      Alcotest.test_case "parallel move: rotate" `Quick test_parallel_rotate;
      Alcotest.test_case "parallel move: chain" `Quick
        test_parallel_chain_no_temp;
      Alcotest.test_case "parallel move: identity" `Quick
        test_parallel_identity_dropped;
      Alcotest.test_case "parallel move: mixed sources" `Quick
        test_parallel_constants_after_shuffle;
      QCheck_alcotest.to_alcotest prop_parallel_random;
      Alcotest.test_case "frame: leaf empty" `Quick test_frame_leaf_is_empty;
      Alcotest.test_case "frame: outgoing args" `Quick
        test_frame_outgoing_args;
      Alcotest.test_case "frame: incoming args" `Quick
        test_frame_incoming_args_above;
      Alcotest.test_case "link: fully resolved" `Quick
        test_link_resolves_everything;
      Alcotest.test_case "link: bad labels are named errors" `Quick
        test_link_rejects_bad_labels;
    ] )
