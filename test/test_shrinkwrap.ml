(** Tests for the shrink-wrap placement machinery (§5): the ANT/AV
    equations, SAVE/RESTORE placement, range extension, the loop rule, the
    balance invariant on random CFGs, and the register-mask solver against
    the generic bit-vector solver on the literal equations. *)

module Ir = Chow_ir.Ir
module Builder = Chow_ir.Builder
module Cfg = Chow_ir.Cfg
module Dom = Chow_ir.Dom
module Loops = Chow_ir.Loops
module Dataflow = Chow_ir.Dataflow
module Bitset = Chow_support.Bitset
module Machine = Chow_machine.Machine
module Shrinkwrap = Chow_core.Shrinkwrap

let reg = Machine.s0

let bit = Machine.mask_of_list [ reg ]

let mk_app nblocks use_blocks =
  Array.init nblocks (fun l -> if List.mem l use_blocks then bit else 0)

let analyse p =
  let cfg = Cfg.of_proc p in
  let dom = Dom.compute cfg in
  (cfg, Loops.compute cfg dom)

let saves_of placement =
  List.sort compare
    (List.filter_map
       (fun (l, r) -> if r = reg then Some l else None)
       placement.Shrinkwrap.save_at)

let restores_of placement =
  List.sort compare
    (List.filter_map
       (fun (l, r) -> if r = reg then Some l else None)
       placement.Shrinkwrap.restore_at)

(* linear chain 0 -> 1 -> 2 -> 3(ret), use in block 2 only *)
let chain () =
  let b = Builder.create "chain" in
  let l1 = Builder.new_block b in
  let l2 = Builder.new_block b in
  let l3 = Builder.new_block b in
  Builder.terminate b (Ir.Jump l1);
  Builder.switch_to b l1;
  Builder.terminate b (Ir.Jump l2);
  Builder.switch_to b l2;
  Builder.terminate b (Ir.Jump l3);
  Builder.switch_to b l3;
  Builder.terminate b (Ir.Ret None);
  Builder.finish b

let test_chain_placement () =
  (* on a straight line every block reaches the use, so the use is
     anticipated from the entry and the save hoists to the earliest point —
     "the insertions should be at the earliest points in the program
     leading to ... regions where the register is used" (paper §5) *)
  let p = chain () in
  let cfg, loops = analyse p in
  let app = mk_app 4 [ 2 ] in
  let placement = Shrinkwrap.place cfg loops ~app [ reg ] in
  Alcotest.(check (list int)) "save hoists to the entry" [ 0 ]
    (saves_of placement);
  Alcotest.(check (list int)) "restore sinks to the exit" [ 3 ]
    (restores_of placement);
  Alcotest.(check (list int)) "counts as an entry save" [ reg ]
    (List.filter (fun r -> r = reg) placement.Shrinkwrap.entry_save)

let test_entry_spanning_use () =
  let p = chain () in
  let cfg, loops = analyse p in
  let app = mk_app 4 [ 0; 1; 2; 3 ] in
  let placement = Shrinkwrap.place cfg loops ~app [ reg ] in
  Alcotest.(check (list int)) "save at entry" [ 0 ] (saves_of placement);
  Alcotest.(check (list int)) "restore at exit" [ 3 ] (restores_of placement);
  Alcotest.(check (list int)) "flagged as entry save" [ reg ]
    placement.Shrinkwrap.entry_save

(* one-armed diamond: 0 -> {1(use), 3}; 1 -> 2(ret); 3 -> 2 *)
let cold_arm () =
  let b = Builder.create "coldarm" in
  let v = Builder.new_vreg b in
  Builder.emit b (Ir.Li (v, 0));
  let arm = Builder.new_block b in
  let join = Builder.new_block b in
  let other = Builder.new_block b in
  Builder.terminate b (Ir.Cbranch (Ir.Eq, Ir.Reg v, Ir.Imm 0, arm, other));
  Builder.switch_to b arm;
  Builder.terminate b (Ir.Jump join);
  Builder.switch_to b other;
  Builder.terminate b (Ir.Jump join);
  Builder.switch_to b join;
  Builder.terminate b (Ir.Ret None);
  Builder.finish b

let test_cold_arm_wrapped () =
  let p = cold_arm () in
  let cfg, loops = analyse p in
  (* after DFS renumbering: entry 0, arm 1, join 2, other 3 *)
  let app = mk_app 4 [ 1 ] in
  let placement = Shrinkwrap.place cfg loops ~app [ reg ] in
  Alcotest.(check (list int)) "save only on the arm" [ 1 ] (saves_of placement);
  Alcotest.(check (list int)) "restore only on the arm" [ 1 ]
    (restores_of placement)

(* loop 0 -> 1(head) -> {2(body), 3(exit)}; 2 -> 1; use in body *)
let loop_proc () =
  let b = Builder.create "loopsw" in
  let v = Builder.new_vreg b in
  Builder.emit b (Ir.Li (v, 0));
  let head = Builder.new_block b in
  let body = Builder.new_block b in
  let exit = Builder.new_block b in
  Builder.terminate b (Ir.Jump head);
  Builder.switch_to b head;
  Builder.terminate b (Ir.Cbranch (Ir.Lt, Ir.Reg v, Ir.Imm 9, body, exit));
  Builder.switch_to b body;
  Builder.terminate b (Ir.Jump head);
  Builder.switch_to b exit;
  Builder.terminate b (Ir.Ret None);
  Builder.finish b

let test_loop_rule () =
  (* a use inside the loop must not be wrapped inside it: APP propagates to
     the whole loop and the save lands outside *)
  let p = loop_proc () in
  let cfg, loops = analyse p in
  let app = mk_app 4 [ 2 ] in
  let placement = Shrinkwrap.place cfg loops ~app [ reg ] in
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "no save inside loop (L%d)" l)
        false
        (List.mem l (saves_of placement)))
    [ 1; 2 ];
  Alcotest.(check bool) "save before the loop" true
    (List.mem 0 (saves_of placement));
  Alcotest.(check (list int)) "restore after the loop" [ 3 ]
    (restores_of placement)

let test_no_use_no_code () =
  let p = chain () in
  let cfg, loops = analyse p in
  let app = mk_app 4 [] in
  let placement = Shrinkwrap.place cfg loops ~app [ reg ] in
  Alcotest.(check (list int)) "no saves" [] (saves_of placement);
  Alcotest.(check (list int)) "no restores" [] (restores_of placement)

let test_entry_exit_placement () =
  let p = cold_arm () in
  let cfg = Cfg.of_proc p in
  let placement = Shrinkwrap.entry_exit_placement cfg [ reg ] in
  Alcotest.(check (list int)) "save at entry" [ 0 ] (saves_of placement);
  Alcotest.(check (list int)) "restores at every exit" [ 2 ]
    (restores_of placement)

(* ------------------- balance on random CFGs ------------------- *)

(* random, always-reachable CFG: block i jumps/branches forward or to a
   random earlier block, the last block returns *)
let random_cfg rng nblocks =
  let b = Builder.create "rand" in
  let v = Builder.new_vreg b in
  Builder.emit b (Ir.Li (v, 0));
  let labels = Array.init (nblocks - 1) (fun _ -> Builder.new_block b) in
  let all = Array.append [| 0 |] labels in
  let target i =
    (* bias forward so a return is always reachable *)
    if Random.State.bool rng then all.(min (nblocks - 1) (i + 1))
    else all.(Random.State.int rng nblocks)
  in
  for i = 0 to nblocks - 1 do
    Builder.switch_to b all.(i);
    if i = nblocks - 1 then Builder.terminate b (Ir.Ret None)
    else if Random.State.bool rng then
      Builder.terminate b (Ir.Jump all.(i + 1))
    else
      Builder.terminate b
        (Ir.Cbranch (Ir.Lt, Ir.Reg v, Ir.Imm 3, target i, target (i + 0)))
  done;
  Builder.finish b

let prop_balance =
  QCheck.Test.make ~count:400
    ~name:"shrink-wrap placement is balanced on random CFGs"
    (QCheck.make
       QCheck.Gen.(pair (int_bound 100000) (int_range 2 12))
       ~print:(fun (s, n) -> Printf.sprintf "seed=%d nblocks=%d" s n))
    (fun (seed, nblocks) ->
      let rng = Random.State.make [| seed |] in
      let p = random_cfg rng nblocks in
      let cfg, loops = analyse p in
      let n = Ir.nblocks p in
      let app =
        Array.init n (fun _ -> if Random.State.int rng 3 = 0 then bit else 0)
      in
      let app_copy = Array.copy app in
      let placement = Shrinkwrap.place cfg loops ~app [ reg ] in
      let save = Array.make n 0 and restore = Array.make n 0 in
      List.iter (fun (l, r) -> save.(l) <- save.(l) lor (1 lsl r))
        placement.Shrinkwrap.save_at;
      List.iter (fun (l, r) -> restore.(l) <- restore.(l) lor (1 lsl r))
        placement.Shrinkwrap.restore_at;
      (* balanced w.r.t. the original APP (the extension only grows it) *)
      Shrinkwrap.check_balance cfg ~app:app_copy ~save ~restore reg = [])

(* ------------- register masks against the generic solver ------------- *)

(* the literal equations (3.1)-(3.6) over bitsets, solved by
   [Dataflow.solve]: the oracle for the mask solver *)
let oracle cfg (app : Bitset.t array) =
  let solve direction =
    Dataflow.solve cfg
      {
        Dataflow.nbits = Machine.nregs;
        direction;
        meet = Dataflow.Inter;
        boundary = Bitset.create Machine.nregs;
        gen = (fun l -> app.(l));
        kill = (fun _ -> Bitset.create Machine.nregs);
      }
  in
  let ant = solve Dataflow.Backward and av = solve Dataflow.Forward in
  let eq first second others value =
    Array.init cfg.Cfg.nblocks (fun l ->
        let s = Bitset.diff first.(l) second.(l) in
        List.iter (fun j -> Bitset.diff_into s value.(j)) (others l);
        s)
  in
  let save =
    eq ant.Dataflow.live_in av.Dataflow.live_in (Cfg.preds cfg)
      ant.Dataflow.live_in
  in
  let restore =
    eq av.Dataflow.live_out ant.Dataflow.live_out (Cfg.succs cfg)
      av.Dataflow.live_out
  in
  (ant, av, save, restore)

let mask_of_bitset s = Machine.mask_of_list (Bitset.elements s)

(* APP over a few registers: $ra and three callee-saved ones, each block
   holding each register with probability 1/3 *)
let random_app rng n =
  let regs = [ Machine.ra; Machine.s0; Machine.s0 + 1; Machine.s0 + 8 ] in
  Array.init n (fun _ ->
      Bitset.of_list Machine.nregs
        (List.filter (fun _ -> Random.State.int rng 3 = 0) regs))

let prop_masks_match_oracle =
  QCheck.Test.make ~count:400
    ~name:"mask ANT/AV/SAVE/RESTORE equal the bitset equations"
    (QCheck.make
       QCheck.Gen.(pair (int_bound 100000) (int_range 2 12))
       ~print:(fun (s, n) -> Printf.sprintf "seed=%d nblocks=%d" s n))
    (fun (seed, nblocks) ->
      let rng = Random.State.make [| seed |] in
      let p = random_cfg rng nblocks in
      let cfg = Cfg.of_proc p in
      let app = random_app rng (Ir.nblocks p) in
      let ant, av, save, restore = oracle cfg app in
      let masks = Array.map mask_of_bitset app in
      let ant' = Shrinkwrap.solve_ant cfg masks in
      let av' = Shrinkwrap.solve_av cfg masks in
      let save' =
        Shrinkwrap.compute_save cfg ~antin:ant'.Shrinkwrap.ins
          ~avin:av'.Shrinkwrap.ins
      in
      let restore' =
        Shrinkwrap.compute_restore cfg ~avout:av'.Shrinkwrap.outs
          ~antout:ant'.Shrinkwrap.outs
      in
      let same name want got =
        Array.iteri
          (fun l s ->
            if mask_of_bitset s <> got.(l) then
              QCheck.Test.fail_reportf "%s differs at L%d: %#x vs %#x" name l
                (mask_of_bitset s) got.(l))
          want
      in
      same "ANTIN" ant.Dataflow.live_in ant'.Shrinkwrap.ins;
      same "ANTOUT" ant.Dataflow.live_out ant'.Shrinkwrap.outs;
      same "AVIN" av.Dataflow.live_in av'.Shrinkwrap.ins;
      same "AVOUT" av.Dataflow.live_out av'.Shrinkwrap.outs;
      same "SAVE" save save';
      same "RESTORE" restore restore';
      true)

let prop_adapter_matches_masks =
  QCheck.Test.make ~count:200
    ~name:"bitset APP adapter places as the mask entry and keeps APP"
    (QCheck.make
       QCheck.Gen.(pair (int_bound 100000) (int_range 2 12))
       ~print:(fun (s, n) -> Printf.sprintf "seed=%d nblocks=%d" s n))
    (fun (seed, nblocks) ->
      let rng = Random.State.make [| seed |] in
      let p = random_cfg rng nblocks in
      let cfg, loops = analyse p in
      let app = random_app rng (Ir.nblocks p) in
      let before = Array.map Bitset.copy app in
      let regs = [ Machine.ra; Machine.s0; Machine.s0 + 1; Machine.s0 + 8 ] in
      let via_bitsets = Shrinkwrap.compute cfg loops ~app regs in
      let via_masks =
        Shrinkwrap.place cfg loops ~app:(Array.map mask_of_bitset app) regs
      in
      via_bitsets = via_masks && Array.for_all2 Bitset.equal before app)

let suite =
  ( "shrinkwrap",
    [
      Alcotest.test_case "straight-line hoists to entry" `Quick test_chain_placement;
      Alcotest.test_case "entry-spanning use" `Quick test_entry_spanning_use;
      Alcotest.test_case "cold arm wrapped" `Quick test_cold_arm_wrapped;
      Alcotest.test_case "loop rule" `Quick test_loop_rule;
      Alcotest.test_case "no use, no code" `Quick test_no_use_no_code;
      Alcotest.test_case "entry/exit fallback" `Quick
        test_entry_exit_placement;
      QCheck_alcotest.to_alcotest prop_balance;
      QCheck_alcotest.to_alcotest prop_masks_match_oracle;
      QCheck_alcotest.to_alcotest prop_adapter_matches_masks;
    ] )
