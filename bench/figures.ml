(** Reproductions of the paper's four figures as executable experiments.

    The figures in the paper are illustrative diagrams; here each becomes a
    small program (or a hand-built CFG) plus measurements demonstrating the
    phenomenon the figure illustrates. *)

module Ir = Chow_ir.Ir
module Builder = Chow_ir.Builder
module Cfg = Chow_ir.Cfg
module Dom = Chow_ir.Dom
module Loops = Chow_ir.Loops
module Machine = Chow_machine.Machine
module Shrinkwrap = Chow_core.Shrinkwrap
module Alloc_types = Chow_core.Alloc_types
module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Ipra = Chow_core.Ipra
module Sim = Chow_sim.Sim

let section title =
  Format.printf "@.%s@.%s@." title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Figure 1: re-use of a register in simultaneously active procedures *)
(* ------------------------------------------------------------------ *)

let fig1_src =
  {|
proc q(x) {
  var c = x * 3;           // c lives in q while p is still active
  return c + 1;
}

proc p(x) {
  var a = x + 1;           // a dies before the call to q
  var t = a * a + a;
  var r = q(t);
  var b = r - 1;           // b is born after the call
  return b * 2 + b;
}

proc main() {
  print(p(5));
}
|}

let find_local (p : Ir.proc) name =
  let found = ref None in
  Array.iteri
    (fun v k ->
      match k with
      | Ir.Vlocal n when n = name -> found := Some v
      | Ir.Vlocal _ | Ir.Vparam _ | Ir.Vtemp -> ())
    p.Ir.vreg_kinds;
  !found

let fig1 () =
  section "Figure 1: register re-use in simultaneously active procedures";
  Format.printf
    "p and q are active at the same time, yet a (in p), b (in p) and c (in \
     q)@.can share one register because no live range spans the call.@.@.";
  let compiled = Pipeline.compile_source Config.o3_sw (Pipeline.Src fig1_src) in
  let assignments =
    List.concat_map
      (fun (alloc : Ipra.t) ->
        List.concat_map
          (fun (pname, (res : Alloc_types.result)) ->
            List.filter_map
              (fun var ->
                match find_local res.Alloc_types.r_proc var with
                | Some v -> (
                    match res.Alloc_types.r_assignment.(v) with
                    | Alloc_types.Lreg r -> Some (pname, var, Machine.name r)
                    | Alloc_types.Lstack -> Some (pname, var, "<memory>"))
                | None -> None)
              [ "a"; "b"; "c" ])
          alloc.Ipra.results)
      (Pipeline.allocs compiled)
  in
  List.iter
    (fun (pname, var, reg) ->
      Format.printf "  %s.%s -> %s@." pname var reg)
    assignments;
  let o = Pipeline.run compiled in
  Format.printf
    "  save/restore memory operations executed: %d (all for $ra)@."
    (o.Sim.save_loads + o.Sim.save_stores);
  let distinct =
    List.sort_uniq compare (List.map (fun (_, _, r) -> r) assignments)
  in
  Format.printf "  distinct registers for a,b,c: %d (paper: 1)@."
    (List.length distinct)

(* --------------------------------------------------------------- *)
(* Figure 2: save placement depends on the form of the control flow *)
(* --------------------------------------------------------------- *)

(* the paper's Fig 2(a) CFG: a use on one arm of a diamond and another use
   below the join.  Builder.finish renumbers blocks in DFS order; comments
   give the correspondence. *)
let fig2_proc () =
  let b = Builder.create "fig2" in
  let v = Builder.new_vreg b in
  let l1 = Builder.new_block b in
  let l2 = Builder.new_block b in
  let l3 = Builder.new_block b in
  let l4 = Builder.new_block b in
  let l5 = Builder.new_block b in
  Builder.emit b (Ir.Li (v, 0));
  Builder.terminate b (Ir.Cbranch (Ir.Eq, Ir.Reg v, Ir.Imm 0, l1, l2));
  Builder.switch_to b l1;
  Builder.terminate b (Ir.Jump l3);
  Builder.switch_to b l2;
  Builder.terminate b (Ir.Jump l3);
  Builder.switch_to b l3;
  Builder.terminate b (Ir.Cbranch (Ir.Eq, Ir.Reg v, Ir.Imm 1, l4, l5));
  Builder.switch_to b l4;
  Builder.terminate b (Ir.Jump l5);
  Builder.switch_to b l5;
  Builder.terminate b (Ir.Ret None);
  Builder.finish b

(* the shape on which the literal equations are genuinely unbalanced:
       e -> {j, k};  j -> i;  k -> {i, m};  i -> m(exit)
   with uses in j and i.  SAVE places a save only in j (i is blocked by
   j's anticipation), so the path e-k-i reaches the use unprotected.
   DFS numbering: e=0 j=1 i=2 m=3 k=4. *)
let fig2_join_proc () =
  let b = Builder.create "fig2join" in
  let v = Builder.new_vreg b in
  let lj = Builder.new_block b in
  let lk = Builder.new_block b in
  let li = Builder.new_block b in
  let lm = Builder.new_block b in
  Builder.emit b (Ir.Li (v, 0));
  Builder.terminate b (Ir.Cbranch (Ir.Eq, Ir.Reg v, Ir.Imm 0, lj, lk));
  Builder.switch_to b lj;
  Builder.terminate b (Ir.Jump li);
  Builder.switch_to b lk;
  Builder.terminate b (Ir.Cbranch (Ir.Eq, Ir.Reg v, Ir.Imm 1, li, lm));
  Builder.switch_to b li;
  Builder.terminate b (Ir.Jump lm);
  Builder.switch_to b lm;
  Builder.terminate b (Ir.Ret None);
  Builder.finish b

let naive_placement cfg app reg =
  let ant = Shrinkwrap.solve_ant cfg app in
  let av = Shrinkwrap.solve_av cfg app in
  let save =
    Shrinkwrap.compute_save cfg ~antin:ant.Shrinkwrap.ins
      ~avin:av.Shrinkwrap.ins
  in
  let restore =
    Shrinkwrap.compute_restore cfg ~avout:av.Shrinkwrap.outs
      ~antout:ant.Shrinkwrap.outs
  in
  let blocks_of arr =
    List.filter (fun l -> Machine.mask_mem arr.(l) reg)
      (List.init cfg.Cfg.nblocks (fun l -> l))
  in
  (blocks_of save, blocks_of restore)

let pp_labels ppf ls =
  if ls = [] then Format.pp_print_string ppf "(none)"
  else
    Chow_support.Pp.list
      ~sep:(fun ppf () -> Format.pp_print_string ppf ", ")
      (fun ppf l -> Format.fprintf ppf "L%d" l)
      ppf ls

let pp_placed ppf placed =
  pp_labels ppf (List.map fst placed)

let mk_app nblocks reg use_blocks =
  Array.init nblocks (fun l ->
      if List.mem l use_blocks then Machine.mask_of_list [ reg ] else 0)

let fig2 () =
  section "Figure 2: dependence on the form of control flow";
  let reg = Machine.s0 in
  (* part 1: the paper's own shape *)
  let p = fig2_proc () in
  let cfg = Cfg.of_proc p in
  let dom = Dom.compute cfg in
  let loops = Loops.compute cfg dom in
  let use_blocks = [ 5; 3 ] in
  Format.printf
    "(a) the paper's shape: %s used in L5 (one arm of the first diamond)@.\
     and L3 (one arm of the second); the path L0-L5-L2-L3 visits both.@."
    (Machine.name reg);
  let saves, restores = naive_placement cfg (mk_app (Ir.nblocks p) reg use_blocks) reg in
  Format.printf "    literal equations: saves at %a, restores at %a@."
    pp_labels saves pp_labels restores;
  Format.printf
    "    the restore of eq (3.6) lands between the two saves, so the pair@.\
     is balanced here — the mutual SAVE/RESTORE dependence of the paper's@.\
     footnote.  The balance checker confirms:@.";
  let app = mk_app (Ir.nblocks p) reg use_blocks in
  let placement = Shrinkwrap.place cfg loops ~app [ reg ] in
  Format.printf
    "    final placement (%d round(s)): saves %a, restores %a@.@."
    placement.Shrinkwrap.iterations pp_placed placement.Shrinkwrap.save_at
    pp_placed placement.Shrinkwrap.restore_at;
  (* part 2: the genuinely incorrect join shape *)
  let p = fig2_join_proc () in
  let cfg = Cfg.of_proc p in
  let dom = Dom.compute cfg in
  let loops = Loops.compute cfg dom in
  let use_blocks = [ 1; 2 ] in
  Format.printf
    "(b) the join shape needing range extension: uses in L1 and in the@.\
     join L2; L2 is also reachable through L4 which carries no save.@.";
  let saves, restores = naive_placement cfg (mk_app (Ir.nblocks p) reg use_blocks) reg in
  Format.printf "    literal equations: saves at %a, restores at %a@."
    pp_labels saves pp_labels restores;
  Format.printf
    "    -> the path L0-L4-L2 reaches the use in L2 with no save active@.";
  let app = mk_app (Ir.nblocks p) reg use_blocks in
  let placement = Shrinkwrap.place cfg loops ~app [ reg ] in
  Format.printf
    "    after APP range extension (%d round(s)): saves %a, restores %a@."
    placement.Shrinkwrap.iterations pp_placed placement.Shrinkwrap.save_at
    pp_placed placement.Shrinkwrap.restore_at;
  Format.printf
    "    (the usage range was extended to the offending blocks instead of@.\
     splitting the edge, exactly as the paper prescribes)@."

(* ----------------------------------------------------- *)
(* Figure 3: the four execution paths of two wrap regions *)
(* ----------------------------------------------------- *)

let fig3_src c1 c2 =
  Printf.sprintf
    {|
proc work(a, b, c, d, e) {
  return a + b * c - d + e;
}

proc f(x) {
  var acc = x;
  if (%d == 1) {
    var a = x + 1;
    var b = x + 2;
    var c = x + 3;
    var d = x + 4;
    var e = x + 5;
    acc = acc + work(a, b, c, d, e) + a + b + c + d + e;
  }
  acc = acc * 2;
  if (%d == 1) {
    var a2 = x + 6;
    var b2 = x + 7;
    var c2 = x + 8;
    var d2 = x + 9;
    var e2 = x + 10;
    acc = acc + work(a2, b2, c2, d2, e2) + a2 + b2 + c2 + d2 + e2;
  }
  return acc;
}

proc main() {
  var i = 0;
  var t = 0;
  while (i < 500) {
    t = t + f(i);
    i = i + 1;
  }
  print(t);
}
|}
    c1 c2

let fig3 () =
  section "Figure 3: effects of the shrink-wrap optimization per path";
  Format.printf
    "two optional regions each need callee-saved registers; shrink-wrap@.\
     helps the path using neither, costs on the path using both, and is@.\
     neutral when exactly one region runs (paper: +, 0, 0, -).@.@.";
  Format.printf "%-18s %12s %12s %10s@." "path (r1,r2)" "cycles -O2"
    "cycles -O2+sw" "delta";
  List.iter
    (fun (c1, c2) ->
      let src = fig3_src c1 c2 in
      let base = Pipeline.run (Pipeline.compile_source Config.baseline (Pipeline.Src src)) in
      let sw = Pipeline.run (Pipeline.compile_source Config.o2_sw (Pipeline.Src src)) in
      Format.printf "%-18s %12d %12d %10d@."
        (Printf.sprintf "(%d,%d)" c1 c2)
        base.Sim.cycles sw.Sim.cycles
        (base.Sim.cycles - sw.Sim.cycles))
    [ (0, 0); (0, 1); (1, 0); (1, 1) ]

(* ------------------------------------------------------------- *)
(* Figure 4: where to put saves/restores in the call graph        *)
(* ------------------------------------------------------------- *)

let fig4_src ~cold_r ~q_calls ~r_calls =
  Printf.sprintf
    {|
// p holds a value in a register across its calls; q is a leaf; r uses
// enough registers internally to clobber whatever p holds.  When cold_r
// is set, r's register-hungry code sits on a rarely taken path, so the
// Section-6 rule shrink-wraps it inside r instead of propagating the
// saves to p.
proc q(x) {
  return x + 1;
}

proc heavy(x) {
  var a = x + 1;
  var b = x + 2;
  var c = x + 3;
  var d = x + 4;
  var e = x + 5;
  var f2 = x + 6;
  var g = x + 7;
  var h = x + 8;
  var m = q(a + b + c + d);
  return m + e + f2 + g + h;
}

proc r(x) {
  if (%d == 0 || x %% 16 == 0) {
    return heavy(x);
  }
  return x;
}

proc p(x) {
  var kept = x * 7;        // lives across every call below
  var acc = 0;
  var i = 0;
  while (i < %d) {
    acc = acc + q(kept + i);
    i = i + 1;
  }
  i = 0;
  while (i < %d) {
    acc = acc + r(kept + i);
    i = i + 1;
  }
  return acc + kept;
}

proc main() {
  var t = 0;
  var n = 0;
  while (n < 50) {
    t = t + p(n);
    n = n + 1;
  }
  print(t);
}
|}
    (if cold_r then 1 else 0)
    q_calls r_calls

let fig4 () =
  section "Figure 4: inserting saves and restores in the call graph";
  Format.printf
    "a register may be saved around p's calls (cost per call in p) or@.\
     inside r (cost per execution of r's use region).  Which is cheaper@.\
     depends on relative frequencies (paper SS6).  On a register-starved@.\
     machine (3 caller-saved + 2 callee-saved), configuration B always@.\
     propagates r's register usage to p, while C applies the Section-6@.\
     rule: usage on a cold internal path of r is shrink-wrapped inside r.@.@.";
  let machine = Machine.restrict ~n_caller:3 ~n_callee:2 ~n_param:4 in
  let cfg name ipra shrinkwrap =
    { Config.name; ipra; shrinkwrap; machine; jobs = 1;
      alloc = Chow_core.Allocator.Chow }
  in
  let base_cfg = cfg "-O2/small" false false in
  let b_cfg = cfg "-O3/small" true false in
  let c_cfg = cfg "-O3+sw/small" true true in
  Format.printf "%-34s %10s %10s %10s %9s %9s@." "regime" "-O2" "B" "C"
    "B red." "C red.";
  List.iter
    (fun (label, cold_r, q_calls, r_calls) ->
      let src = fig4_src ~cold_r ~q_calls ~r_calls in
      let base = Pipeline.run (Pipeline.compile_source base_cfg (Pipeline.Src src)) in
      let b = Pipeline.run (Pipeline.compile_source b_cfg (Pipeline.Src src)) in
      let c = Pipeline.run (Pipeline.compile_source c_cfg (Pipeline.Src src)) in
      let red v =
        100. *. float_of_int (base.Sim.cycles - v)
        /. float_of_int base.Sim.cycles
      in
      Format.printf "%-34s %10d %10d %10d %8.1f%% %8.1f%%@." label
        base.Sim.cycles b.Sim.cycles c.Sim.cycles (red b.Sim.cycles)
        (red c.Sim.cycles))
    [
      ("r hot, heavy path cold (2:40)", true, 2, 40);
      ("r hot, heavy path always (2:40)", false, 2, 40);
      ("q hot (40:2), heavy path cold", true, 40, 2);
    ]

let run () =
  fig1 ();
  fig2 ();
  fig3 ();
  fig4 ()
