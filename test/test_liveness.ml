(** Tests for liveness, live ranges and the interference graph. *)

module Ir = Chow_ir.Ir
module Builder = Chow_ir.Builder
module Cfg = Chow_ir.Cfg
module Dom = Chow_ir.Dom
module Loops = Chow_ir.Loops
module Bitset = Chow_support.Bitset
module Liveness = Chow_core.Liveness
module Liverange = Chow_core.Liverange
module Interference = Chow_core.Interference

let analyse p =
  let cfg = Cfg.of_proc p in
  let dom = Dom.compute cfg in
  let loops = Loops.compute cfg dom in
  let lv = Liveness.compute p cfg in
  let lr = Liverange.compute p loops lv (Interference.build p lv) in
  (cfg, lv, lr)

(* straight-line: a defined, then b, then a used, then b used *)
let test_straightline_liveness () =
  let bld = Builder.create "straight" in
  let a = Builder.new_vreg bld in
  let b = Builder.new_vreg bld in
  let c = Builder.new_vreg bld in
  Builder.emit bld (Ir.Li (a, 1));
  Builder.emit bld (Ir.Li (b, 2));
  Builder.emit bld (Ir.Binop (Ir.Add, c, Ir.Reg a, Ir.Reg b));
  Builder.terminate bld (Ir.Ret (Some (Ir.Reg c)));
  let p = Builder.finish bld in
  let _, lv, _ = analyse p in
  Alcotest.(check (list int)) "nothing live-in" []
    (Bitset.elements lv.Liveness.live_in.(0));
  Alcotest.(check (list int)) "nothing live-out" []
    (Bitset.elements lv.Liveness.live_out.(0))

let test_loop_liveness () =
  (* i is live around the loop; the loop-exit use keeps it live-out of the
     body *)
  let bld = Builder.create "loop" in
  let i = Builder.new_vreg bld in
  Builder.emit bld (Ir.Li (i, 0));
  let head = Builder.new_block bld in
  let body = Builder.new_block bld in
  let exit = Builder.new_block bld in
  Builder.terminate bld (Ir.Jump head);
  Builder.switch_to bld head;
  Builder.terminate bld (Ir.Cbranch (Ir.Lt, Ir.Reg i, Ir.Imm 10, body, exit));
  Builder.switch_to bld body;
  Builder.emit bld (Ir.Binop (Ir.Add, i, Ir.Reg i, Ir.Imm 1));
  Builder.terminate bld (Ir.Jump head);
  Builder.switch_to bld exit;
  Builder.terminate bld (Ir.Ret (Some (Ir.Reg i)));
  let p = Builder.finish bld in
  let _, lv, lr = analyse p in
  Alcotest.(check (list int)) "i live into head" [ i ]
    (Bitset.elements lv.Liveness.live_in.(1));
  Alcotest.(check (list int)) "i live out of body" [ i ]
    (Bitset.elements lv.Liveness.live_out.(2));
  let range = lr.Liverange.ranges.(i) in
  Alcotest.(check int) "i spans all four blocks" 4 range.Liverange.span;
  (* weighted refs: the body def+use sits at loop depth 1 (weight 10) *)
  Alcotest.(check bool) "loop weighting applied" true
    (range.Liverange.weighted_refs > 20.)

let call_proc () =
  (* x live across a call, y not *)
  let bld = Builder.create "callp" in
  let x = Builder.new_vreg bld in
  let y = Builder.new_vreg bld in
  let r = Builder.new_vreg bld in
  Builder.emit bld (Ir.Li (x, 1));
  Builder.emit bld (Ir.Li (y, 2));
  Builder.emit bld
    (Ir.Call { target = Ir.Direct "f"; args = [ Ir.Reg y ]; ret = Some r });
  Builder.emit bld (Ir.Binop (Ir.Add, r, Ir.Reg r, Ir.Reg x));
  Builder.terminate bld (Ir.Ret (Some (Ir.Reg r)));
  (Builder.finish bld, x, y, r)

let test_live_across_call () =
  let p, x, y, r = call_proc () in
  let _, _, lr = analyse p in
  Alcotest.(check int) "one call site" 1
    (Array.length lr.Liverange.call_sites);
  let cs = lr.Liverange.call_sites.(0) in
  Alcotest.(check (list int)) "x live across" [ x ]
    (Bitset.elements cs.Liverange.cs_live_across);
  Alcotest.(check (list int)) "x's calls_across" [ 0 ]
    lr.Liverange.ranges.(x).Liverange.calls_across;
  Alcotest.(check (list int)) "y not live across" []
    lr.Liverange.ranges.(y).Liverange.calls_across;
  Alcotest.(check (list int)) "ret vreg not live across" []
    lr.Liverange.ranges.(r).Liverange.calls_across;
  Alcotest.(check bool) "y recorded as argument 0" true
    (List.mem (0, 0) lr.Liverange.ranges.(y).Liverange.arg_moves)

let test_interference_basic () =
  let p, x, y, r = call_proc () in
  let cfg = Cfg.of_proc p in
  ignore cfg;
  let lv = Liveness.compute p (Cfg.of_proc p) in
  let ig = Interference.build p lv in
  Alcotest.(check bool) "x interferes with y" true (Interference.interfere ig x y);
  Alcotest.(check bool) "x interferes with r" true (Interference.interfere ig x r);
  Alcotest.(check bool) "y does not interfere with r" false
    (Interference.interfere ig y r);
  Alcotest.(check bool) "symmetric" true (Interference.interfere ig y x);
  Alcotest.(check int) "degree of x" 2 (Interference.degree ig x)

let test_mov_exemption () =
  (* d <- s with s dead after: no edge, they may share a register *)
  let bld = Builder.create "mov" in
  let s = Builder.new_vreg bld in
  let d = Builder.new_vreg bld in
  Builder.emit bld (Ir.Li (s, 1));
  Builder.emit bld (Ir.Mov (d, s));
  Builder.terminate bld (Ir.Ret (Some (Ir.Reg d)));
  let p = Builder.finish bld in
  let lv = Liveness.compute p (Cfg.of_proc p) in
  let ig = Interference.build p lv in
  Alcotest.(check bool) "copy exemption" false (Interference.interfere ig s d)

let test_params_interfere () =
  let bld = Builder.create "params" in
  let a = Builder.add_param bld "a" in
  let b = Builder.add_param bld "b" in
  let c = Builder.new_vreg bld in
  Builder.emit bld (Ir.Binop (Ir.Add, c, Ir.Reg a, Ir.Reg b));
  Builder.terminate bld (Ir.Ret (Some (Ir.Reg c)));
  let p = Builder.finish bld in
  let lv = Liveness.compute p (Cfg.of_proc p) in
  let ig = Interference.build p lv in
  Alcotest.(check bool) "parameters interfere" true
    (Interference.interfere ig a b)

(* property: a vreg's live-range block set contains every block where it is
   referenced *)
let prop_range_covers_refs =
  QCheck.Test.make ~count:60 ~name:"live range covers all references"
    (QCheck.make (QCheck.Gen.int_bound 10000)) (fun seed ->
      let src = Genprog.generate ~seed () in
      let ir = Chow_frontend.Lower.compile_unit src in
      List.for_all
        (fun p ->
          let _, _, lr = analyse p in
          let ok = ref true in
          Array.iteri
            (fun l b ->
              let touch v =
                if
                  not
                    (Bitset.mem lr.Liverange.ranges.(v).Liverange.blocks l)
                then ok := false
              in
              List.iter
                (fun i ->
                  List.iter touch (Ir.inst_defs i);
                  List.iter touch (Ir.inst_uses i))
                b.Ir.insts;
              List.iter touch (Ir.term_uses b.Ir.term))
            p.Ir.blocks;
          !ok)
        ir.Ir.procs)

(* ----- the one-walk analyses against a naive reference ----- *)

module IS = Set.Make (Int)

(* What interference and live ranges mean, computed the slow way: a
   per-instruction backward walk over plain sets, consing edges and
   looking every call up by position. *)
type reference = {
  r_adj : IS.t array;
  r_across : (Ir.label * int * IS.t) list;  (** block, index, set *)
  r_calls_across : int list array;
  r_arg_moves : (int * int) list array;
  r_refs : float array;
  r_blocks : IS.t array;
}

let reference (p : Ir.proc) (lv : Liveness.t) weights =
  let n = p.Ir.nvregs and nb = Ir.nblocks p in
  let adj = Array.make n IS.empty in
  let add a b =
    if a <> b then begin
      adj.(a) <- IS.add b adj.(a);
      adj.(b) <- IS.add a adj.(b)
    end
  in
  let set_of bs = IS.of_list (Bitset.elements bs) in
  (* forward: call ids, argument moves, weighted references, presence *)
  let ids = Hashtbl.create 8 and next = ref 0 in
  let arg_moves = Array.make n [] and refs = Array.make n 0. in
  let blocks = Array.make n IS.empty in
  for l = 0 to nb - 1 do
    let b = Ir.block p l in
    let touch v =
      blocks.(v) <- IS.add l blocks.(v);
      refs.(v) <- refs.(v) +. weights.(l)
    in
    List.iteri
      (fun idx i ->
        List.iter touch (Ir.inst_defs i);
        List.iter touch (Ir.inst_uses i);
        match i with
        | Ir.Call { args; _ } ->
            Hashtbl.replace ids (l, idx) !next;
            List.iteri
              (fun pos a ->
                match a with
                | Ir.Reg v -> arg_moves.(v) <- (!next, pos) :: arg_moves.(v)
                | Ir.Imm _ -> ())
              args;
            incr next
        | _ -> ())
      b.Ir.insts;
    List.iter touch (Ir.term_uses b.Ir.term);
    IS.iter
      (fun v -> blocks.(v) <- IS.add l blocks.(v))
      (IS.union (set_of lv.Liveness.live_in.(l)) (set_of lv.Liveness.live_out.(l)))
  done;
  (* backward: edges and live-across sets *)
  let calls_across = Array.make n [] and across = ref [] in
  for l = 0 to nb - 1 do
    let b = Ir.block p l in
    let live =
      ref (IS.union (set_of lv.Liveness.live_out.(l)) (IS.of_list (Ir.term_uses b.Ir.term)))
    in
    List.iteri
      (fun k i ->
        let idx = List.length b.Ir.insts - 1 - k in
        let defs = Ir.inst_defs i in
        let exempt = match i with Ir.Mov (_, s) -> Some s | _ -> None in
        List.iter
          (fun d -> IS.iter (fun v -> if Some v <> exempt then add d v) !live)
          defs;
        (match i with
        | Ir.Call _ ->
            let set = IS.diff !live (IS.of_list defs) in
            let id = Hashtbl.find ids (l, idx) in
            across := (l, idx, set) :: !across;
            IS.iter (fun v -> calls_across.(v) <- id :: calls_across.(v)) set
        | _ -> ());
        live := IS.union (IS.diff !live (IS.of_list defs)) (IS.of_list (Ir.inst_uses i)))
      (List.rev b.Ir.insts)
  done;
  let entry = set_of lv.Liveness.live_in.(Ir.entry_label) in
  List.iter
    (fun pa -> if IS.mem pa entry then IS.iter (fun v -> add pa v) entry)
    p.Ir.params;
  let across =
    List.sort (fun (l, i, _) (l', i', _) -> compare (l, i) (l', i')) !across
  in
  {
    r_adj = adj;
    r_across = across;
    r_calls_across = calls_across;
    r_arg_moves = arg_moves;
    r_refs = refs;
    r_blocks = blocks;
  }

let agrees_with_reference (p : Ir.proc) =
  let cfg = Cfg.of_proc p in
  let loops = Loops.compute cfg (Dom.compute cfg) in
  let lv = Liveness.compute p cfg in
  let ig = Interference.build p lv in
  let lr = Liverange.compute p loops lv ig in
  let r = reference p lv lr.Liverange.weights in
  let elems bs = IS.of_list (Bitset.elements bs) in
  let sites = Array.to_list lr.Liverange.call_sites in
  let fail what v =
    QCheck.Test.fail_reportf "%s: %s differs at %d" p.Ir.pname what v
  in
  for v = 0 to p.Ir.nvregs - 1 do
    let rg = lr.Liverange.ranges.(v) in
    if not (IS.equal (elems (Interference.neighbors ig v)) r.r_adj.(v)) then
      fail "adjacency" v;
    if rg.Liverange.calls_across <> r.r_calls_across.(v) then
      fail "calls_across" v;
    if rg.Liverange.arg_moves <> r.r_arg_moves.(v) then fail "arg_moves" v;
    if
      Int64.bits_of_float rg.Liverange.weighted_refs
      <> Int64.bits_of_float r.r_refs.(v)
    then fail "weighted_refs" v;
    if not (IS.equal (elems rg.Liverange.blocks) r.r_blocks.(v)) then
      fail "blocks" v;
    if rg.Liverange.span <> IS.cardinal r.r_blocks.(v) then fail "span" v
  done;
  List.length sites = List.length r.r_across
  && List.for_all2
       (fun (cs : Liverange.call_site) (l, idx, set) ->
         cs.Liverange.cs_block = l
         && cs.Liverange.cs_index = idx
         && IS.equal (elems cs.Liverange.cs_live_across) set
         && IS.equal
              (elems (Interference.live_across ig).(cs.Liverange.cs_id))
              set)
       sites r.r_across
  && List.for_all2
       (fun (cs : Liverange.call_site) i -> cs.Liverange.cs_id = i)
       sites
       (List.init (List.length sites) Fun.id)

let prop_matches_reference =
  QCheck.Test.make ~count:60
    ~name:"interference and live ranges match a naive backward walk"
    (QCheck.make (QCheck.Gen.int_bound 10000)) (fun seed ->
      let src = Genprog.generate ~seed () in
      List.for_all agrees_with_reference
        (Chow_frontend.Lower.compile_unit src).Ir.procs)

let test_workloads_match_reference () =
  List.iter
    (fun (w : Chow_workloads.Workloads.t) ->
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (w.Chow_workloads.Workloads.name ^ "." ^ p.Ir.pname)
            true (agrees_with_reference p))
        (Chow_frontend.Lower.compile_unit w.Chow_workloads.Workloads.source)
          .Ir.procs)
    Chow_workloads.Workloads.all

(* loops nested 0 to 6 deep: a block at depth [d] weighs exactly
   [10^min(d,5)], so the depth-6 body weighs what the depth-5 one does *)
let test_static_weights () =
  let rec nest d =
    if d = 6 then "s = s + 1;"
    else
      Printf.sprintf "var i%d = 0; while (i%d < 2) { %s i%d = i%d + 1; }" d d
        (nest (d + 1)) d d
  in
  let src =
    Printf.sprintf "proc main() { var s = 0; %s print(s); }" (nest 0)
  in
  let p = List.hd (Chow_frontend.Lower.compile_unit src).Ir.procs in
  let cfg = Cfg.of_proc p in
  let loops = Loops.compute cfg (Dom.compute cfg) in
  let _, _, lr = analyse p in
  let expected = [| 1.; 10.; 100.; 1000.; 10000.; 100000.; 100000. |] in
  let seen = Array.make 7 false in
  Array.iteri
    (fun l w ->
      let d = Loops.depth loops l in
      seen.(d) <- true;
      Alcotest.(check (float 0.))
        (Printf.sprintf "block %d at depth %d" l d)
        expected.(d) w)
    lr.Liverange.weights;
  Alcotest.(check (array bool)) "every depth 0..6 present"
    (Array.make 7 true) seen

let suite =
  ( "liveness",
    [
      Alcotest.test_case "straight-line" `Quick test_straightline_liveness;
      Alcotest.test_case "loop" `Quick test_loop_liveness;
      Alcotest.test_case "live across call" `Quick test_live_across_call;
      Alcotest.test_case "interference" `Quick test_interference_basic;
      Alcotest.test_case "mov copy exemption" `Quick test_mov_exemption;
      Alcotest.test_case "parameters interfere" `Quick test_params_interfere;
      Alcotest.test_case "static weights are 10^min(depth,5)" `Quick
        test_static_weights;
      QCheck_alcotest.to_alcotest prop_range_covers_refs;
      QCheck_alcotest.to_alcotest prop_matches_reference;
      Alcotest.test_case "workloads match the naive reference" `Quick
        test_workloads_match_reference;
    ] )
