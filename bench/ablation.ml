(** Register-class ablation: the mechanism behind Table 2, isolated.

    Inside {e closed} procedures IPRA deliberately erases the difference
    between the classes — every register operates caller-saved (§2).  The
    classes only behave differently around {e open} procedures, so the
    ablation compiles two program shapes under an all-caller-saved and an
    all-callee-saved register file (both -O3+sw, 8 registers):

    - "hot open leaves": an address-taken leaf called through a pointer in
      a hot loop.  A callee-saved file makes the leaf save every register
      it touches on each activation; a caller-saved file costs nothing.
      This is why the paper's small benchmarks (nim, map, stanford) prefer
      column D.
    - "values across open calls": a hot caller keeps values live across
      calls to a recursive procedure.  A caller-saved file must assume the
      open callee clobbers everything and save around every call; a
      callee-saved file relies on the callee's contract and crosses for
      free.  This is the "migration of saves/restores up the call graph"
      that §8 credits for column E's advantage in register-hungry programs.

    A register-count sweep on the second shape then shows how shrinking the
    file amplifies the effect. *)

module Machine = Chow_machine.Machine
module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Sim = Chow_sim.Sim
module Allocator = Chow_core.Allocator
module W = Chow_workloads.Workloads

let leafy_src =
  {|
// hot open leaves: handlers dispatched through a table
var handlers[3];

proc h0(x) { var t = x * 3; var u = x + 7; return t - u; }
proc h1(x) { var t = x + 13; var u = x * 2; return t * u; }
proc h2(x) { var t = x - 4; var u = x * 5; return t + u; }

proc main() {
  handlers[0] = &h0;
  handlers[1] = &h1;
  handlers[2] = &h2;
  var i = 0;
  var acc = 0;
  while (i < 3000) {
    var h = handlers[i % 3];
    acc = acc + h(i);
    i = i + 1;
  }
  print(acc);
}
|}

(* [cross_src k]: main keeps [k] values live across calls to an exported
   (hence open) procedure that does real work.  The caller-saved file must
   save all [k] around every call; the callee-saved file relies on the
   callee's contract, whose own save cost is amortised over the callee's
   loop. *)
let cross_src k =
  let vars = List.init k (fun i -> Printf.sprintf "keep%d" i) in
  let decls =
    String.concat ""
      (List.map (fun v -> Printf.sprintf "  var %s = 3;\n" v) vars)
  in
  let uses = String.concat " + " vars in
  let uses2 =
    String.concat " - " (List.map (fun v -> v ^ " * 2") vars)
  in
  Printf.sprintf
    {|
export proc work(x) {
  var s = 0;
  var j = 0;
  while (j < 10) {
    s = s + x * j;
    j = j + 1;
  }
  return s;
}

proc main() {
  var i = 0;
  var total = 0;
  var aux = 0;
%s
  while (i < 1000) {
    var w = work(i);
    total = total + w + %s;
    aux = aux + %s;
    i = i + 1;
  }
  print(total);
  print(aux);
}
|}
    decls uses uses2

let measure machine src =
  let config =
    {
      Config.name = "ablation";
      ipra = true;
      shrinkwrap = true;
      machine;
      jobs = 1;
      alloc = Chow_core.Allocator.Chow;
    }
  in
  let o = Pipeline.run (Pipeline.compile_source config (Pipeline.Src src)) in
  (o.Sim.cycles, o.Sim.save_loads + o.Sim.save_stores)

let caller_file n = Machine.restrict ~n_caller:n ~n_callee:0 ~n_param:0
let callee_file n = Machine.restrict ~n_caller:0 ~n_callee:n ~n_param:0

let run () =
  Format.printf "@.Register-class ablation (mechanism behind Table 2)@.";
  Format.printf "%s@." (String.make 66 '=');
  Format.printf "%-28s %14s %14s %14s@." "shape (8 registers)" "caller cyc"
    "callee cyc" "winner";
  List.iter
    (fun (label, src) ->
      let ca_cyc, ca_sv = measure (caller_file 8) src in
      let ce_cyc, ce_sv = measure (callee_file 8) src in
      Format.printf "%-28s %8d (%4d) %8d (%4d) %14s@." label ca_cyc ca_sv
        ce_cyc ce_sv
        (if ca_cyc < ce_cyc then "caller-saved"
         else if ce_cyc < ca_cyc then "callee-saved"
         else "tie"))
    [
      ("hot open leaves", leafy_src);
      ("values across open calls", cross_src 6);
    ];
  Format.printf "  (parenthesised: dynamic save/restore memory operations)@.";
  Format.printf
    "@.Sweep on the cross-call shape: the callee-saved advantage grows@.\
     with the number of values the caller protects across the open call@.\
     (8-register files; k values live across each call):@.@.";
  Format.printf "%4s | %12s %12s | %s@." "k" "caller" "callee" "callee gain";
  List.iter
    (fun k ->
      let ca, _ = measure (caller_file 8) (cross_src k) in
      let ce, _ = measure (callee_file 8) (cross_src k) in
      Format.printf "%4d | %12d %12d | %+10.1f%%@." k ca ce
        (100. *. float_of_int (ca - ce) /. float_of_int ca))
    [ 1; 2; 4; 6 ]

(* ----- allocation-strategy matrix ----- *)

(** Strategy x workload matrix over the paper's thirteen programs: every
    [--alloc] policy compiles and runs each workload under -O3+sw, and
    the table reports dynamic cycles plus the save/restore traffic the
    allocation decision causes (register save/restore memory operations
    plus spill-home loads/stores — the axis the paper minimizes).  The
    program output is identical across strategies by construction (the
    differential test suite asserts it); what varies is exactly the
    penalty, so the matrix is the paper's Table 1 story retold against a
    linear-scan and a spill-everywhere baseline instead of -O2.  The
    machine-readable twin of this table is the [alloc/*] row family
    pinned in test/bench_counts.txt (nim, dhrystone and uopt under -O2
    and -O3+sw). *)
let strategy_matrix () =
  Format.printf "@.Allocation-strategy matrix (-O3+sw, dynamic counts)@.";
  Format.printf "%s@." (String.make 74 '=');
  Format.printf "%-10s | %21s | %21s | %21s@." ""
    "chow cyc (sv+rs)" "linear cyc (sv+rs)" "spill-all cyc (sv+rs)";
  let measure strategy src =
    let config = Config.with_alloc strategy Config.o3_sw in
    let o = Pipeline.run (Pipeline.compile_source config (Pipeline.Src src)) in
    ( o.Sim.cycles,
      o.Sim.save_stores + o.Sim.scalar_stores + o.Sim.save_loads
      + o.Sim.scalar_loads )
  in
  List.iter
    (fun w ->
      let cells =
        List.map (fun s -> measure s w.W.source) Allocator.all
      in
      Format.printf "%-10s |%s@." w.W.name
        (String.concat " |"
           (List.map
              (fun (cyc, sr) -> Printf.sprintf " %12d (%6d)" cyc sr)
              cells)))
    W.all;
  Format.printf
    "  (sv+rs: dynamic save/restore + spill-home memory operations)@."

let run () =
  run ();
  strategy_matrix ()
