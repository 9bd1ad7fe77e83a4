(** Tests for the dynamic penalty profiler (lib/sim/profile.ml): parallel
    determinism, agreement with the reference engine's counters, the
    per-site table summing to the global totals, call-tree invariants, a
    golden report on a small fixed program, and the paper's headline
    property — -O3+sw executes strictly fewer save/restore memory
    operations than -O2 on the largest workload. *)

module Asm = Chow_codegen.Asm
module Linked = Chow_codegen.Linked
module Machine = Chow_machine.Machine
module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Sim = Chow_sim.Sim
module Decode = Chow_sim.Decode
module Profile = Chow_sim.Profile
module Metrics = Chow_obs.Metrics
module W = Chow_workloads.Workloads

let source_of name =
  match W.find name with
  | Some w -> w.W.source
  | None -> Alcotest.failf "unknown workload %s" name

let profile_of ?(config = Config.o3_sw) src =
  Pipeline.profile_penalty (Pipeline.compile_source config (Pipeline.Src src))

(* share the expensive uopt profiles across cases *)
let uopt_o3sw = lazy (profile_of (source_of "uopt"))
let uopt_o2 = lazy (profile_of ~config:Config.baseline (source_of "uopt"))

let strip (r : Profile.report) = (r.Profile.counters, r.Profile.sites)

(** The profile is a function of the program alone: a -j1 and a -j4
    compile of the same source must profile identically — counters, site
    table, and the entire call tree. *)
let test_parallel_deterministic () =
  let src = source_of "uopt" in
  let r4 = profile_of ~config:(Config.with_jobs 4 Config.o3_sw) src in
  let r1 = Lazy.force uopt_o3sw in
  Alcotest.(check bool) "counters and sites equal" true
    (strip r1 = strip r4);
  Alcotest.(check bool) "call trees equal" true
    (r1.Profile.calltree = r4.Profile.calltree)

(** The profiler's classification must reproduce the reference engine's
    per-tag totals: the two runs share no code beyond the program. *)
let test_matches_reference_engine () =
  List.iter
    (fun (config : Config.t) ->
      let prog =
        Pipeline.program (Pipeline.compile_source config (Pipeline.Src (source_of "nim")))
      in
      let r = Profile.run prog in
      let ref_o = Sim.run_reference prog in
      let c = r.Profile.counters in
      let check what = Alcotest.(check int) (config.Config.name ^ ": " ^ what) in
      check "saves" ref_o.Sim.save_stores
        (c.Profile.entry_saves + c.Profile.call_saves);
      check "restores" ref_o.Sim.save_loads
        (c.Profile.exit_restores + c.Profile.call_restores);
      check "call saves" ref_o.Sim.call_save_stores c.Profile.call_saves;
      check "call restores" ref_o.Sim.call_save_loads c.Profile.call_restores;
      check "spill loads" (ref_o.Sim.scalar_loads - ref_o.Sim.save_loads)
        (c.Profile.spill_loads + c.Profile.stackarg_loads);
      check "data loads" ref_o.Sim.data_loads c.Profile.data_loads;
      check "data stores" ref_o.Sim.data_stores c.Profile.data_stores;
      check "cycles" ref_o.Sim.cycles r.Profile.outcome.Decode.cycles)
    [ Config.baseline; Config.o3_sw ]

(** Every save/restore operation is attributed to exactly one call site:
    the per-site table must sum to the global counters, and the
    [sim.penalty.*] metrics published from them must agree. *)
let test_sites_sum_to_counters () =
  Metrics.reset ();
  Metrics.enable ();
  let r = profile_of (source_of "nim") in
  Metrics.disable ();
  let c = r.Profile.counters in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 r.Profile.sites in
  Alcotest.(check int) "entry saves" c.Profile.entry_saves
    (sum (fun s -> s.Profile.s_entry_saves));
  Alcotest.(check int) "exit restores" c.Profile.exit_restores
    (sum (fun s -> s.Profile.s_exit_restores));
  Alcotest.(check int) "call saves" c.Profile.call_saves
    (sum (fun s -> s.Profile.s_call_saves));
  Alcotest.(check int) "call restores" c.Profile.call_restores
    (sum (fun s -> s.Profile.s_call_restores));
  Alcotest.(check int) "calls" r.Profile.outcome.Decode.calls
    (sum (fun s -> s.Profile.s_calls));
  let metric name =
    match List.assoc_opt name (Metrics.dump ()) with
    | Some v -> v
    | None -> Alcotest.failf "metric %s not published" name
  in
  Alcotest.(check int) "sim.penalty.entry_saves" c.Profile.entry_saves
    (metric "sim.penalty.entry_saves");
  Alcotest.(check int) "sim.penalty.exit_restores" c.Profile.exit_restores
    (metric "sim.penalty.exit_restores");
  Alcotest.(check int) "sim.penalty.call_saves" c.Profile.call_saves
    (metric "sim.penalty.call_saves");
  Alcotest.(check int) "sim.penalty.call_restores" c.Profile.call_restores
    (metric "sim.penalty.call_restores")

(** Call-tree invariants: preorder with the root first, parents before
    children, the root's cumulative figures equal the whole run, flat
    figures partition the run (the segments between call/return
    boundaries cover every cycle exactly once), and cumulative >= flat
    everywhere. *)
let test_calltree_invariants () =
  let r = Lazy.force uopt_o3sw in
  let tree = r.Profile.calltree in
  let root = List.hd tree in
  Alcotest.(check int) "root id" 0 root.Profile.n_id;
  Alcotest.(check int) "root parent" (-1) root.Profile.n_parent;
  Alcotest.(check string) "root proc" "<program>" root.Profile.n_proc;
  Alcotest.(check int) "root cum cycles = run cycles"
    r.Profile.outcome.Decode.cycles root.Profile.n_cum_cycles;
  Alcotest.(check int) "root cum penalty = total"
    (Profile.penalty_total r.Profile.counters)
    root.Profile.n_cum_penalty;
  let flat_cyc =
    List.fold_left (fun a n -> a + n.Profile.n_flat_cycles) 0 tree
  in
  Alcotest.(check int) "flat cycles partition the run"
    r.Profile.outcome.Decode.cycles flat_cyc;
  let flat_pen =
    List.fold_left (fun a n -> a + n.Profile.n_flat_penalty) 0 tree
  in
  Alcotest.(check int) "flat penalty partitions the total"
    (Profile.penalty_total r.Profile.counters)
    flat_pen;
  let seen = Hashtbl.create 256 in
  List.iter
    (fun (n : Profile.node) ->
      if n.Profile.n_parent >= 0 then begin
        Alcotest.(check bool) "parent precedes child" true
          (Hashtbl.mem seen n.Profile.n_parent);
        let p : Profile.node = Hashtbl.find seen n.Profile.n_parent in
        Alcotest.(check int) "child depth" (p.Profile.n_depth + 1)
          n.Profile.n_depth
      end;
      Alcotest.(check bool) "cum >= flat" true
        (n.Profile.n_cum_cycles >= n.Profile.n_flat_cycles
        && n.Profile.n_cum_penalty >= n.Profile.n_flat_penalty);
      Hashtbl.replace seen n.Profile.n_id n)
    tree

(** Table 4's direction dynamically: on the largest workload, full IPRA
    with shrink-wrapping must execute strictly fewer save/restore memory
    operations than the -O2 baseline. *)
let test_o3sw_beats_o2_on_uopt () =
  let pen (r : Profile.report) = Profile.penalty_total r.Profile.counters in
  let o2 = pen (Lazy.force uopt_o2) in
  let o3sw = pen (Lazy.force uopt_o3sw) in
  Alcotest.(check bool)
    (Printf.sprintf "O3+sw (%d) < O2 (%d)" o3sw o2)
    true (o3sw < o2)

(* A small fixed program whose report is pinned verbatim: the loop
   variables live across the call to [leaf] land in callee-saved
   registers under -O2, so [mid]'s activation pays contract saves that
   the table attributes to the [main -> mid] call site. *)
let golden_src =
  {|
proc leaf(a, b) { return a + b; }
proc mid(n) {
  var s = 0;
  var i = 0;
  while (i < n) { s = s + leaf(i, n); i = i + 1; }
  return s;
}
proc main() { print(mid(5)); }
|}

let test_golden_report () =
  let r = profile_of ~config:Config.baseline golden_src in
  let got = Format.asprintf "%a" (Profile.pp_penalty_report ~limit:5) r in
  let expected = Golden_penalty_report.expected in
  if got <> expected then
    Alcotest.failf "penalty report drifted:@.--- expected ---@.%s@.--- got ---@.%s"
      expected got

let contains = Test_server.contains

(** Truncated output must announce itself: with the row limit below the
    site count, the report carries an "omitted" trailer; when every row
    fits, it must not. *)
let test_report_truncation_trailer () =
  let r = profile_of ~config:Config.baseline golden_src in
  Alcotest.(check bool) "needs > 1 site" true (List.length r.Profile.sites > 1);
  let cut = Format.asprintf "%a" (Profile.pp_penalty_report ~limit:1) r in
  Alcotest.(check bool) "trailer present when rows are cut" true
    (contains "more site" cut && contains "omitted" cut);
  let full = Format.asprintf "%a" (Profile.pp_penalty_report ~limit:5) r in
  Alcotest.(check bool) "no trailer when all rows fit" false
    (contains "omitted" full)

(** The call-tree node cap no longer truncates silently: with a tiny
    [max_nodes], calls on new paths collapse into their parents and are
    counted in [tree_capped] (and the [sim.penalty.tree_capped] metric);
    with the default cap the count is zero and the tree is complete. *)
let test_tree_cap_reported () =
  let prog =
    Pipeline.program (Pipeline.compile_source Config.baseline (Pipeline.Src golden_src))
  in
  Metrics.reset ();
  Metrics.enable ();
  let capped = Profile.run ~max_nodes:2 prog in
  Metrics.disable ();
  Alcotest.(check bool) "tree_capped > 0 under a tiny cap" true
    (capped.Profile.tree_capped > 0);
  Alcotest.(check int) "node table respects the cap" 2
    (List.length capped.Profile.calltree);
  (match List.assoc_opt "sim.penalty.tree_capped" (Metrics.dump ()) with
  | Some v -> Alcotest.(check int) "metric matches report" capped.Profile.tree_capped v
  | None -> Alcotest.fail "sim.penalty.tree_capped not published");
  let full = Profile.run prog in
  Alcotest.(check int) "default cap loses nothing" 0 full.Profile.tree_capped;
  (* the collapsed counters still balance: both runs executed the same
     program, so the global classification is identical *)
  Alcotest.(check bool) "counters unaffected by the cap" true
    (capped.Profile.counters = full.Profile.counters);
  let trailer = Format.asprintf "%a" (Profile.pp_calltree ~max_depth:3) capped in
  Alcotest.(check bool) "calltree trailer names the collapse" true
    (contains "collapsed" trailer)

(** An around-call save or restore is charged only to a call it brackets
    in its own procedure.  In this hand-built program [main] brackets its
    call to [g] with a save and a restore of [ra].  Its stray restore
    follows only the stub's call, and its stray save precedes only [f]'s
    (never run), both in other procedures, so neither brackets a site: the
    class totals count them, and no site is charged for them. *)
let test_bracket_bounded () =
  let t0 = Machine.t0 and sp = Machine.sp and ra = Machine.ra in
  let prog =
    {
      Asm.code =
        [|
          Asm.Jal_pc 2 (* stub *);
          Asm.Halt;
          Asm.Lw (t0, sp, -2, Asm.Tcallsave) (* main: stray restore *);
          Asm.Sw (ra, sp, -1, Asm.Tcallsave);
          Asm.Jal_pc 8;
          Asm.Lw (ra, sp, -1, Asm.Tcallsave);
          Asm.Sw (t0, sp, -2, Asm.Tcallsave) (* stray save *);
          Asm.Jr;
          Asm.Jr (* g *);
          Asm.Jal_pc 8 (* f *);
          Asm.Jr;
        |];
      entry = 0;
      proc_addrs = [ ("main", 2); ("g", 8); ("f", 9) ];
      metas = [];
      data_size = 0;
      data_init = [];
    }
  in
  Alcotest.(check (array int))
    "bracketed calls" [| -1; -1; -1; 4; -1; 4; -1; -1; -1; -1; -1 |]
    (Linked.make prog).Linked.bracket;
  let r = Profile.run prog in
  Alcotest.(check int) "call saves" 2 r.Profile.counters.Profile.call_saves;
  Alcotest.(check int) "call restores" 2
    r.Profile.counters.Profile.call_restores;
  Alcotest.(check (list (list int)))
    "sites: calls, call saves, call restores"
    [ [ 4; 1; 1; 1 ]; [ 0; 1; 0; 0 ] ]
    (List.map
       (fun s ->
         Profile.[ s.s_site; s.s_calls; s.s_call_saves; s.s_call_restores ])
       r.Profile.sites)

let suite =
  ( "penalty",
    [
      Alcotest.test_case "reference-engine agreement" `Quick
        test_matches_reference_engine;
      Alcotest.test_case "sites sum to counters" `Quick
        test_sites_sum_to_counters;
      Alcotest.test_case "golden report" `Quick test_golden_report;
      Alcotest.test_case "truncation trailer" `Quick
        test_report_truncation_trailer;
      Alcotest.test_case "tree cap reported" `Quick test_tree_cap_reported;
      Alcotest.test_case "call-site brackets stay in their procedure" `Quick
        test_bracket_bounded;
      Alcotest.test_case "parallel determinism (uopt)" `Slow
        test_parallel_deterministic;
      Alcotest.test_case "call-tree invariants (uopt)" `Slow
        test_calltree_invariants;
      Alcotest.test_case "O3+sw < O2 dynamic penalty (uopt)" `Slow
        test_o3sw_beats_o2_on_uopt;
    ] )
