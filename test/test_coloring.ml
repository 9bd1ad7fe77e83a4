(** Tests for the priority-based coloring allocator and its IPRA
    extensions: assignment validity, register-class choice, usage-mask
    publication and parameter-register negotiation. *)

module Ir = Chow_ir.Ir
module Cfg = Chow_ir.Cfg
module Bitset = Chow_support.Bitset
module Machine = Chow_machine.Machine
module Lower = Chow_frontend.Lower
module Liveness = Chow_core.Liveness
module Interference = Chow_core.Interference
module Coloring = Chow_core.Coloring
module Usage = Chow_core.Usage
module Ipra = Chow_core.Ipra
module Alloc = Chow_core.Alloc_types

let allocate_intra ?(shrinkwrap = false) ?(config = Machine.full) src =
  let ir = Lower.compile_unit src in
  let alloc = Ipra.allocate_program ~ipra:false ~shrinkwrap config ir in
  alloc

let allocate_ipra ?(shrinkwrap = true) ?(config = Machine.full) src =
  let ir = Lower.compile_unit src in
  Ipra.allocate_program ~ipra:true ~shrinkwrap config ir

let result alloc name =
  match Ipra.find alloc name with
  | Some r -> r
  | None -> Alcotest.failf "no allocation result for %s" name

let vreg_of (res : Alloc.result) name =
  let found = ref None in
  Array.iteri
    (fun v k ->
      match k with
      | Ir.Vlocal n when n = name -> found := Some v
      | Ir.Vparam (n, _) when n = name -> found := Some v
      | Ir.Vlocal _ | Ir.Vparam _ | Ir.Vtemp -> ())
    res.Alloc.r_proc.Ir.vreg_kinds;
  match !found with
  | Some v -> v
  | None -> Alcotest.failf "no variable %s" name

(* validity: interfering vregs never share a physical register *)
let check_validity (res : Alloc.result) =
  let p = res.Alloc.r_proc in
  let cfg = Cfg.of_proc p in
  let lv = Liveness.compute p cfg in
  let ig = Interference.build p lv in
  for a = 0 to p.Ir.nvregs - 1 do
    Bitset.iter
      (fun b ->
        match (res.Alloc.r_assignment.(a), res.Alloc.r_assignment.(b)) with
        | Alloc.Lreg ra, Alloc.Lreg rb when ra = rb ->
            Alcotest.failf "%s: interfering %%%d and %%%d share %s"
              p.Ir.pname a b (Machine.name ra)
        | (Alloc.Lreg _ | Alloc.Lstack), (Alloc.Lreg _ | Alloc.Lstack) -> ())
      (Interference.neighbors ig a)
  done

let leaf_src =
  {|
proc leaf(a, b) {
  var t = a * b;
  var u = a + b;
  return t - u;
}
proc main() { print(leaf(3, 4)); }
|}

let test_leaf_uses_caller_saved () =
  let alloc = allocate_intra leaf_src in
  let res = result alloc "leaf" in
  check_validity res;
  Array.iter
    (function
      | Alloc.Lreg r ->
          Alcotest.(check bool)
            (Machine.name r ^ " is caller-saved or param")
            true
            (Machine.class_of r <> Machine.Callee_saved)
      | Alloc.Lstack -> ())
    res.Alloc.r_assignment;
  Alcotest.(check (list int)) "leaf saves nothing" []
    res.Alloc.r_contract_saves

let cross_call_src =
  {|
proc callee(x) { return x + 1; }
proc mid(a) {
  var keep = a * 3;
  var s = 0;
  var i = 0;
  while (i < 10) {
    s = s + callee(keep + i);
    i = i + 1;
  }
  return s + keep;
}
proc main() { print(mid(2)); }
|}

let test_cross_call_prefers_callee_saved_intra () =
  (* under intra allocation, [keep] spans ten calls: a callee-saved register
     (one save/restore pair at entry/exit) beats saving around every call *)
  let alloc = allocate_intra cross_call_src in
  let res = result alloc "mid" in
  check_validity res;
  (match res.Alloc.r_assignment.(vreg_of res "keep") with
  | Alloc.Lreg r ->
      Alcotest.(check bool) "keep in callee-saved" true
        (Machine.class_of r = Machine.Callee_saved)
  | Alloc.Lstack -> Alcotest.fail "keep spilled");
  Alcotest.(check bool) "mid saves some callee-saved register" true
    (List.exists
       (fun r -> r <> Machine.ra)
       res.Alloc.r_contract_saves)

let test_cross_call_free_under_ipra () =
  (* under IPRA the callee's mask is tiny, so [keep] crosses the calls in a
     register the callee does not touch, with no saves anywhere *)
  let alloc = allocate_ipra cross_call_src in
  let res = result alloc "mid" in
  check_validity res;
  (match res.Alloc.r_assignment.(vreg_of res "keep") with
  | Alloc.Lreg _ -> ()
  | Alloc.Lstack -> Alcotest.fail "keep spilled");
  Alcotest.(check (list int)) "no around-call saves in mid" []
    (Hashtbl.fold
       (fun _ plan acc -> plan.Alloc.cp_saves @ acc)
       res.Alloc.r_call_plans []);
  Alcotest.(check (list int)) "only ra saved locally" [ Machine.ra ]
    res.Alloc.r_contract_saves

let test_mask_published () =
  let alloc = allocate_ipra cross_call_src in
  let res = result alloc "callee" in
  Alcotest.(check bool) "callee is closed" false res.Alloc.r_open;
  match Usage.find alloc.Ipra.usage "callee" with
  | None -> Alcotest.fail "closed callee published no mask"
  | Some info ->
      (* every register callee assigned is in the mask *)
      Array.iter
        (function
          | Alloc.Lreg r ->
              Alcotest.(check bool)
                (Machine.name r ^ " in mask")
                true
                (Machine.mask_mem info.Usage.mask r)
          | Alloc.Lstack -> ())
        res.Alloc.r_assignment;
      (* the parameter's arrival register matches the published location *)
      let pv = vreg_of res "x" in
      (match (res.Alloc.r_assignment.(pv), info.Usage.param_locs) with
      | Alloc.Lreg r, [ Alloc.Preg pr ] ->
          Alcotest.(check int) "param reg published" r pr
      | Alloc.Lstack, [ Alloc.Pstack ] -> ()
      | _ -> Alcotest.fail "param_locs mismatch")

let test_open_proc_default_params () =
  let alloc =
    allocate_ipra
      {|
proc recd(n, m) { if (n <= 0) { return m; } return recd(n - 1, m + 1); }
proc main() { print(recd(3, 0)); }
|}
  in
  let res = result alloc "recd" in
  Alcotest.(check bool) "recursive proc is open" true res.Alloc.r_open;
  match res.Alloc.r_param_locs with
  | [ Alloc.Preg r0; Alloc.Preg r1 ] ->
      Alcotest.(check int) "first param in $a0" Machine.a0 r0;
      Alcotest.(check int) "second param in $a1" (Machine.a0 + 1) r1
  | _ -> Alcotest.fail "expected two register params"

let test_stack_params_beyond_four () =
  let alloc =
    allocate_intra
      {|
proc wide(a, b, c, d, e, f) { return a + b + c + d + e + f; }
proc main() { print(wide(1, 2, 3, 4, 5, 6)); }
|}
  in
  let res = result alloc "wide" in
  let locs = res.Alloc.r_param_locs in
  Alcotest.(check int) "six params" 6 (List.length locs);
  List.iteri
    (fun i loc ->
      match loc with
      | Alloc.Preg _ ->
          Alcotest.(check bool) "first four in registers" true (i < 4)
      | Alloc.Pstack ->
          Alcotest.(check bool) "rest on the stack" true (i >= 4))
    locs

let test_restricted_machine_spills () =
  (* with a single allocatable register most locals go to memory, but the
     allocation stays valid and the program still runs *)
  let config = Machine.restrict ~n_caller:1 ~n_callee:0 ~n_param:0 in
  let alloc = allocate_intra ~config cross_call_src in
  List.iter (fun (_, res) -> check_validity res) alloc.Ipra.results;
  let res = result alloc "mid" in
  let spilled =
    Array.to_list res.Alloc.r_assignment
    |> List.filter (fun l -> l = Alloc.Lstack)
  in
  Alcotest.(check bool) "something spilled" true (List.length spilled > 0)

let test_dead_param_publication () =
  (* regression: a dead-on-arrival parameter must not publish a register
     arrival — its assigned register reflects a later live range that need
     not interfere with the other parameters, so two parameters could
     collide in the caller's argument moves.  Found by the random
     equivalence property (seed 2768). *)
  let src =
    {|
proc p1(a, b, c, d) {
  b = (d % 3) / (1 + (c * c) % 5);   // b and a are dead on arrival
  a = -16;
  return b + !c;
}
proc main() {
  print(p1(1, 2, 3, 4));
  print(p1(5, 1, 2, 3));
}
|}
  in
  let alloc = allocate_ipra src in
  let res = result alloc "p1" in
  (match Usage.find alloc.Ipra.usage "p1" with
  | None -> Alcotest.fail "p1 should be closed"
  | Some info ->
      let regs =
        List.filter_map
          (function Alloc.Preg r -> Some r | Alloc.Pstack -> None)
          info.Usage.param_locs
      in
      Alcotest.(check int) "published register arrivals are distinct"
        (List.length regs)
        (List.length (List.sort_uniq compare regs));
      (* the dead parameters must not claim register arrivals at all *)
      List.iteri
        (fun i loc ->
          if not (List.nth res.Alloc.r_param_live i) then
            Alcotest.(check bool)
              (Printf.sprintf "dead param %d on stack" i)
              true (loc = Alloc.Pstack))
        info.Usage.param_locs);
  (* and behaviour matches the baseline *)
  let run cfg =
    (Chow_compiler.Pipeline.run (Chow_compiler.Pipeline.compile_source cfg (Chow_compiler.Pipeline.Src src)))
      .Chow_sim.Sim.output
  in
  Alcotest.(check (list int)) "same output"
    (run Chow_compiler.Config.baseline)
    (run Chow_compiler.Config.o3)

let prop_validity_random =
  QCheck.Test.make ~count:60
    ~name:"no interfering ranges share a register (all configs)"
    (QCheck.make (QCheck.Gen.int_bound 100000) ~print:string_of_int)
    (fun seed ->
      let src = Genprog.generate ~seed () in
      let ir = Lower.compile_unit src in
      List.for_all
        (fun (ipra, shrinkwrap, config) ->
          let alloc = Ipra.allocate_program ~ipra ~shrinkwrap config ir in
          List.iter (fun (_, res) -> check_validity res) alloc.Ipra.results;
          true)
        [
          (false, false, Machine.full);
          (true, true, Machine.full);
          (true, true, Machine.seven_callee_saved);
          (true, false, Machine.seven_caller_saved);
        ])

let test_default_clobber () =
  (* an indirect call, or a direct call to a procedure that published no
     summary, clobbers the caller-saved and parameter registers *)
  let usage = Usage.create_table () in
  let default = Machine.mask_of_list (Machine.caller_saved @ Machine.param_regs) in
  Alcotest.(check int) "default convention" default Usage.default_clobber;
  Alcotest.(check int) "indirect" default
    (Usage.clobber_of_call usage (Ir.Indirect 0));
  Alcotest.(check int) "unpublished callee" default
    (Usage.clobber_of_call usage (Ir.Direct "elsewhere"));
  Usage.publish usage "leaf"
    { Usage.mask = Machine.mask_of_list [ Machine.t0 ]; param_locs = [] };
  Alcotest.(check int) "published callee" (Machine.mask_of_list [ Machine.t0 ])
    (Usage.clobber_of_call usage (Ir.Direct "leaf"));
  Alcotest.(check int) "other callees keep the default" default
    (Usage.clobber_of_call usage (Ir.Direct "elsewhere"))

(* ----- the mask-based register choice against the full scan ----- *)

let save_restore_cost = float_of_int (Machine.load_cost + Machine.store_cost)

(* the selection loop [Coloring.choose_register] replaced: score every
   register of [order], keep the first best, and move to a tree-used
   register on an equal score *)
let scan_choice ~order ~forbidden ~tree_used ~special ~score ~refs ~costly =
  let bit r = 1 lsl r in
  let score_of r =
    if special land bit r <> 0 then score.(r)
    else if costly land bit r <> 0 then refs -. save_restore_cost
    else refs
  in
  let best = ref (-1) and best_score = ref 0. and best_tree = ref false in
  Array.iter
    (fun r ->
      let s = score_of r in
      if forbidden land bit r = 0 then begin
        let tree = tree_used land bit r <> 0 in
        if
          !best < 0 || s > !best_score
          || (s = !best_score && tree && not !best_tree)
        then begin
          best := r;
          best_score := s;
          best_tree := tree
        end
      end)
    order;
  !best

let orders =
  [|
    ("full", Array.of_list Machine.full.Machine.allocatable);
    ("seven caller-saved",
      Array.of_list Machine.seven_caller_saved.Machine.allocatable);
    ("seven callee-saved",
      Array.of_list Machine.seven_callee_saved.Machine.allocatable);
  |]

type choice_case = {
  order_name : string;
  order : int array;
  forbidden : int;
  tree_used : int;
  special : int;
  costly : int;
  refs : float;
  score : float array;
}

let gen_choice =
  let open QCheck.Gen in
  let all = (1 lsl Machine.nregs) - 1 in
  (* a mask that is often sparse, sometimes full or empty *)
  let gen_mask =
    frequency
      [
        (4, map2 ( land ) (int_bound all) (int_bound all));
        (3, int_bound all);
        (1, return 0);
        (1, return all);
      ]
  in
  oneofa orders >>= fun (order_name, order) ->
  oneofl [ 1.; 2.; 10.; 100.5 ] >>= fun refs ->
  (* scores drawn from a few values, the plain ones among them, so ties
     across explicit and plain registers are common *)
  let gen_score =
    oneofl
      [ refs; refs -. save_restore_cost; refs +. 1.; refs -. 3.; 0.; -2.5 ]
  in
  map
    (fun ((forbidden, tree_used, special, costly), score) ->
      { order_name; order; forbidden; tree_used; special; costly; refs; score })
    (pair (quad gen_mask gen_mask gen_mask gen_mask)
       (array_repeat Machine.nregs gen_score))

let print_choice c =
  Printf.sprintf
    "%s: forbidden %#x tree %#x special %#x costly %#x refs %g scores [%s]"
    c.order_name c.forbidden c.tree_used c.special c.costly c.refs
    (String.concat "; "
       (Array.to_list (Array.map (Printf.sprintf "%g") c.score)))

let choose c =
  Coloring.choose_register ~order:c.order
    ~order_mask:(Machine.mask_of_list (Array.to_list c.order))
    ~forbidden:c.forbidden ~tree_used:c.tree_used ~special:c.special
    ~score:c.score ~refs:c.refs ~costly:c.costly

let prop_choice_matches_scan =
  QCheck.Test.make ~count:2000 ~name:"mask choice equals the full scan"
    (QCheck.make gen_choice ~print:print_choice) (fun c ->
      choose c
      = scan_choice ~order:c.order ~forbidden:c.forbidden
          ~tree_used:c.tree_used ~special:c.special ~score:c.score
          ~refs:c.refs ~costly:c.costly)

(* the per-range choice allocates nothing: 1000 calls leave the minor
   allocation counter where it was *)
let test_choice_allocates_nothing () =
  let order = Array.of_list Machine.full.Machine.allocatable in
  let order_mask = Machine.mask_of_list Machine.full.Machine.allocatable in
  let score = Array.init Machine.nregs (fun r -> float_of_int (r mod 5)) in
  let special = Machine.mask_of_list [ Machine.t0; Machine.a0 + 1; Machine.s0 ]
  and costly = Machine.mask_of_list Machine.callee_saved
  and tree_used = Machine.mask_of_list [ Machine.t0 + 3; Machine.s0 ] in
  let call () =
    Coloring.choose_register ~order ~order_mask ~forbidden:0b1000_0000_0000
      ~tree_used ~special ~score ~refs:4. ~costly
  in
  let chosen = call () in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (call ()))
  done;
  let after = Gc.minor_words () in
  Alcotest.(check int) "choice" chosen (call ());
  Alcotest.(check (float 0.)) "minor words" 0. (after -. before)

let suite =
  ( "coloring",
    [
      Alcotest.test_case "leaf uses caller-saved" `Quick
        test_leaf_uses_caller_saved;
      Alcotest.test_case "cross-call var gets callee-saved (intra)" `Quick
        test_cross_call_prefers_callee_saved_intra;
      Alcotest.test_case "cross-call var free under IPRA" `Quick
        test_cross_call_free_under_ipra;
      Alcotest.test_case "usage mask publication" `Quick test_mask_published;
      Alcotest.test_case "open proc default params" `Quick
        test_open_proc_default_params;
      Alcotest.test_case "stack params beyond four" `Quick
        test_stack_params_beyond_four;
      Alcotest.test_case "restricted machine spills" `Quick
        test_restricted_machine_spills;
      Alcotest.test_case "dead-on-arrival param publication" `Quick
        test_dead_param_publication;
      QCheck_alcotest.to_alcotest prop_choice_matches_scan;
      Alcotest.test_case "register choice allocates nothing" `Quick
        test_choice_allocates_nothing;
      Alcotest.test_case "default clobber of unknown callees" `Quick
        test_default_clobber;
      QCheck_alcotest.to_alcotest prop_validity_random;
    ] )
