(** Differential sweep: the decoded engine ({!Sim.run}) against the
    reference engine ({!Sim.run_reference}) on all thirteen workloads,
    under the baseline configuration and under -O3+sw with each register
    allocator (each publishes different usage masks, so the decoded
    engine prunes different contracts), with profiling off and on.
    Outcomes must match exactly: output, cycle count, calls, every
    per-tag load/store counter, per-pc counts and per-procedure cycles.
    A second group runs each workload at -O3+sw with fuel one short of
    its cycle count, equal to it and one past it: the first must trap
    with the reference's exact message, the others complete.  A third
    holds the cycle counts the call-path hooks receive to the reference
    engine's fuel traps, and a fourth runs one program of over 20 M
    cycles on a small OCaml stack.  A fifth cuts a short program holding
    every pair kind the decoded engine fuses at every fuel from 1 to one
    past its cycle count, traps the load or store of each memory pair,
    overflows the stack at a fused call and breaks a contract at each
    fused return.  A sixth makes the first stores to two never-written
    pages from each kind of store closure, at every fuel, and stores past
    memory from each.  A seventh holds the static view of every workload,
    under every configuration and allocator, to the oracles of
    {!Linked_oracle}.

    This is its own test executable (see test/dune) so plain
    [dune runtest] always exercises the engine equivalence even when the
    slow suites of the main runner are skipped. *)

module Asm = Chow_codegen.Asm
module Ir = Chow_ir.Ir
module Machine = Chow_machine.Machine
module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Decode = Chow_sim.Decode
module Sim = Chow_sim.Sim
module W = Chow_workloads.Workloads

let compile_o3_sw source =
  Pipeline.program (Pipeline.compile_source Config.o3_sw (Pipeline.Src source))

let check_agree name (prog : Chow_codegen.Asm.program) =
  match Engines.agree name prog with
  | Error e -> Alcotest.failf "%s: trapped: %s" name e
  | Ok d ->
      (* attribution is complete: per-procedure cycles sum to the total *)
      Alcotest.(check int)
        (name ^ ": proc cycles sum")
        d.Sim.cycles
        (List.fold_left (fun acc (_, c) -> acc + c) 0 d.Sim.proc_cycles)

let test_workload (w : W.t) () =
  List.iter
    (fun (config : Config.t) ->
      let c = Pipeline.compile_source config (Pipeline.Src w.W.source) in
      check_agree
        (Printf.sprintf "%s/%s/%s" w.W.name config.Config.name
           (Chow_core.Allocator.to_string config.Config.alloc))
        (Pipeline.program c))
    (Config.baseline
    :: List.map
         (fun a -> Config.with_alloc a Config.o3_sw)
         Chow_core.Allocator.all)

(* Procedure names, per-procedure sums and checked contracts: the static
   view against the oracles, 13 workloads x [Config.all] x 3 allocators. *)
let test_view (w : W.t) () =
  List.iter
    (fun (config : Config.t) ->
      List.iter
        (fun alloc ->
          let config = Config.with_alloc alloc config in
          let c = Pipeline.compile_source config (Pipeline.Src w.W.source) in
          Linked_oracle.check
            (Printf.sprintf "%s/%s/%s" w.W.name config.Config.name
               (Chow_core.Allocator.to_string alloc))
            (Pipeline.program c))
        Chow_core.Allocator.all)
    Config.all

let test_fuel_edges (w : W.t) () =
  let prog = compile_o3_sw w.W.source in
  let cycles = (Sim.run prog).Sim.cycles in
  List.iter
    (fun fuel ->
      let r =
        Engines.agree ~fuel (Printf.sprintf "%s fuel %d" w.W.name fuel) prog
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: fuel %d completes" w.W.name fuel)
        (fuel >= cycles) (Result.is_ok r))
    [ cycles - 1; cycles; cycles + 1 ]

(* The pair kinds [Decode.execute] fuses into one closure, by the
   instructions at pc k and k + 1. *)
let fused_kind (i : Asm.inst) (j : Asm.inst) =
  match (i, j) with
  | Asm.Li _, Asm.B _ -> Some "li;b"
  | Asm.Binopi (Ir.Add, _, _, _), Asm.Lw _ -> Some "addi;lw"
  | Asm.Binopi ((Ir.Add | Ir.Sub), _, _, _), Asm.Sw _ -> Some "addi|subi;sw"
  | Asm.Lw _, Asm.Binopi (Ir.Add, _, _, _) -> Some "lw;addi"
  | Asm.Move _, Asm.Move _ -> Some "move;move"
  | Asm.Move _, Asm.J _ -> Some "move;j"
  | Asm.Lw _, Asm.Move _ -> Some "lw;move"
  | Asm.Move _, Asm.Lw _ -> Some "move;lw"
  | Asm.Move _, Asm.Li _ -> Some "move;li"
  | Asm.Binopi (Ir.Add, _, _, _), Asm.Move _ -> Some "addi;move"
  | Asm.Move _, Asm.Jal_pc _ -> Some "move;jal"
  | Asm.Sw _, Asm.Jal_pc _ -> Some "sw;jal"
  | Asm.Binopi (Ir.Add, _, _, _), Asm.Jr -> Some "addi;jr"
  | Asm.Move _, Asm.Jr -> Some "move;jr"
  | _ -> None

let all_kinds =
  [
    "li;b"; "addi;lw"; "addi|subi;sw"; "lw;addi"; "move;move"; "move;j";
    "lw;move"; "move;lw"; "move;li"; "addi;move"; "move;jal"; "sw;jal";
    "addi;jr"; "move;jr";
  ]

(* loops give li;b, addi;lw, addi;sw and addi;move, [pickmax]'s else
   arm move;j, frames
   subi;sw, lw;addi, addi;jr and move;lw (a result moved to v0 before
   ra's restore), the swapped arguments of [flip]'s call move;move,
   [sq]'s argument move;jal, the leaves' results move;jr, a result moved
   before the next argument's constant move;li, and [two]'s around-call
   save and restore of x sw;jal and lw;move *)
let fused_src =
  {|
var a[8];
var g;
proc mix(x, y) { return y * 100 + x; }
proc flip(x, y) { return mix(y, x); }
proc sq(x) { return x * x; }
proc sum(n) {
  var s = 0;
  var i = 0;
  while (i < n) { s = s + a[i] + sq(i); i = i + 1; }
  return s;
}
proc pick(i) { var v = a[i]; g = v; return a[v % 8]; }
proc two(x) { var p = sq(x); var q = flip(x, p); return p + q; }
proc pickmax(x, y) {
  var m = 0;
  if (x > y) { m = x; } else { m = y; }
  return m;
}
proc main() {
  var i = 0;
  while (i < 8) { a[i] = i * 3; i = i + 1; }
  print(sum(8));
  print(flip(sum(4), 7));
  print(pick(3));
  print(two(5));
  print(pickmax(3, 9) + pickmax(9, 3));
}
|}

(* Whether control can enter the closure of each pc, as the decoded
   engine builds them: at a procedure entry, a branch or jump target or a
   return point, or by falling out of the closure before it.  A closure
   that fuses pcs i and i + 1 falls out into i + 2, so the closure of
   i + 1 is entered only from elsewhere. *)
let entered (prog : Asm.program) =
  let code = prog.Asm.code in
  let n = Array.length code in
  let target = Array.make (n + 1) false in
  List.iter (fun (_, pc) -> target.(pc) <- true) prog.Asm.proc_addrs;
  Array.iteri
    (fun k -> function
      | Asm.B (_, _, _, l) | Asm.J l ->
          if l >= 0 && l <= n then target.(l) <- true
      | Asm.Jal_pc _ | Asm.Jalr _ -> target.(k + 1) <- true
      | _ -> ())
    code;
  let falls k =
    match code.(k) with Asm.J _ | Asm.Jr | Asm.Halt -> false | _ -> true
  in
  let fused k = k + 1 < n && fused_kind code.(k) code.(k + 1) <> None in
  let e = Array.make n false in
  for k = 0 to n - 1 do
    e.(k) <-
      target.(k)
      || (k >= 1 && e.(k - 1) && falls (k - 1) && not (fused (k - 1)))
      || (k >= 2 && e.(k - 2) && fused (k - 2) && falls (k - 1))
  done;
  e

(* A fused closure must stop after its first instruction when the budget
   allows only one, so every fuel cut, inside a pair or between pairs,
   traps as the reference engine does or completes with its outcome.
   Each kind must run as a fused closure: both its pcs execute, and
   control can enter the closure of the first. *)
let test_fuel_sweep () =
  let prog = compile_o3_sw fused_src in
  let code = prog.Asm.code in
  let counts = Array.make (Array.length code) 0 in
  let entered = entered prog in
  let cycles =
    (Decode.execute ~pc_buf:counts (Decode.decode prog)).Decode.cycles
  in
  List.iter
    (fun kind ->
      let runs k =
        fused_kind code.(k) code.(k + 1) = Some kind
        && counts.(k) > 0
        && counts.(k + 1) > 0
        && entered.(k)
      in
      Alcotest.(check bool)
        (kind ^ ": in the code, its closure entered")
        true
        (List.exists runs (List.init (Array.length code - 1) Fun.id)))
    all_kinds;
  for fuel = 1 to cycles + 1 do
    let r = Engines.agree ~fuel (Printf.sprintf "fuel %d" fuel) prog in
    Alcotest.(check bool)
      (Printf.sprintf "fuel %d completes" fuel)
      (fuel >= cycles) (Result.is_ok r)
  done

let only_main code =
  {
    Asm.code = Array.of_list code;
    entry = 0;
    proc_addrs = [ ("main", 0) ];
    metas = [];
    data_size = 0;
    data_init = [];
  }

let t0 = Machine.t0
let t1 = Machine.t0 + 1
let t2 = Machine.t0 + 2

(* pc 0 sets t1 to -3, so the load or store through t1 in the pair at
   pcs 1 and 2 traps, naming its own pc [at] *)
let test_pair_traps (first, second, at) () =
  let prog =
    only_main [ Asm.Li (t1, -3); first t0 t1; second t0 t1; Asm.Halt ]
  in
  Alcotest.(check bool)
    "pcs 1 and 2 are a fused pair" true
    (fused_kind prog.Asm.code.(1) prog.Asm.code.(2) <> None);
  match Engines.agree "trap" prog with
  | Ok _ -> Alcotest.fail "expected an out-of-bounds trap"
  | Error msg ->
      Alcotest.(check string)
        "names the trapping instruction's pc"
        (Printf.sprintf "memory access out of bounds: -3 (pc %d, in main)" at)
        msg

let addi d _ = Asm.Binopi (Ir.Add, d, d, 1)
let subi d _ = Asm.Binopi (Ir.Sub, d, d, 1)
let lw d b = Asm.Lw (d, b, 0, Asm.Tdata)
let sw s b = Asm.Sw (s, b, 0, Asm.Tdata)
let move d b = Asm.Move (d, b)

(* [main] then [f], with [f]'s contract preserving [preserved] *)
let with_callee ?(preserved = []) main f =
  let entry = List.length main in
  {
    Asm.code = Array.of_list (main @ f);
    entry = 0;
    proc_addrs = [ ("main", 0); ("f", entry) ];
    metas = [ (entry, { Asm.m_name = "f"; m_preserved = preserved }) ];
    data_size = 0;
    data_init = [];
  }

let expect_trap prog ~pair:(k, kind) msg =
  Alcotest.(check (option string))
    (Printf.sprintf "pcs %d and %d are a fused %s" k (k + 1) kind)
    (Some kind)
    (fused_kind prog.Asm.code.(k) prog.Asm.code.(k + 1));
  match Engines.agree "trap" prog with
  | Ok _ -> Alcotest.failf "expected the trap %S" msg
  | Error m -> Alcotest.(check string) "the reference's message" msg m

(* sp is 10, under the overflow limit (data size + 64), when the fused
   move;jal at pcs 1 and 2 calls [f]: the trap names the jal's pc *)
let test_call_overflow () =
  expect_trap
    (with_callee
       [ Asm.Li (Machine.sp, 10); move t0 t1; Asm.Jal_pc 4; Asm.Halt ]
       [ Asm.Jr ])
    ~pair:(1, "move;jal") "stack overflow (pc 2, in main)"

(* [main] sets s0 to 5 and t0 to 7 and calls [f] at pc 4, which returns
   to 3 through the fused pair [first];jr after [first] breaks [f]'s
   contract: a wrong return address, an unrestored sp or a clobbered s0.
   Each gives the reference engine's exact message. *)
let test_return_fault (kind, first, msg) () =
  expect_trap
    (with_callee ~preserved:[ Machine.s0 ]
       [ Asm.Li (Machine.s0, 5); Asm.Li (t0, 7); Asm.Jal_pc 4; Asm.Halt ]
       [ first; Asm.Jr ])
    ~pair:(4, kind) msg

let return_faults =
  let addi r = Asm.Binopi (Ir.Add, r, r, 1) in
  [
    ("addi;jr", addi Machine.ra, "f: returned to 4, expected 3");
    ( "addi;jr",
      addi Machine.sp,
      "f: stack pointer not restored (1048577 <> 1048576)" );
    ( "addi;jr",
      addi Machine.s0,
      "f: clobbered preserved register $s0 (6 <> 5)" );
    ("move;jr", move Machine.ra t0, "f: returned to 7, expected 3");
    ( "move;jr",
      move Machine.sp t0,
      "f: stack pointer not restored (7 <> 1048576)" );
    ( "move;jr",
      move Machine.s0 t0,
      "f: clobbered preserved register $s0 (7 <> 5)" );
  ]

(* The closure kinds that store: a single sw (after an li, which does not
   fuse with it), and addi;sw and subi;sw.  [store_by kind off] stores t0
   at t1 + [off]. *)
let store_by kind off =
  let sw = Asm.Sw (t0, t1, off, Asm.Tdata) in
  match kind with
  | "sw" -> [ sw ]
  | "addi;sw" -> [ Asm.Binopi (Ir.Add, t2, t2, 1); sw ]
  | _ -> [ Asm.Binopi (Ir.Sub, t2, t2, 1); sw ]

(* Two first stores: to 4095, the last word of page 0, and to 4096, the
   first of page 1, neither written before.  Both engines agree at every
   fuel across them, the words read back, and 8192, the first word of
   page 2, still reads 0: no store went to the shared page of zeros. *)
let test_first_store kind () =
  let prog =
    only_main
      ([ Asm.Li (t1, 4095); Asm.Li (t0, 7) ]
      @ store_by kind 0 @ store_by kind 1
      @ [
          lw Machine.v0 t1;
          Asm.Print Machine.v0;
          Asm.Lw (Machine.v0, t1, 1, Asm.Tdata);
          Asm.Print Machine.v0;
          Asm.Lw (Machine.v0, t1, 4097, Asm.Tdata);
          Asm.Print Machine.v0;
          Asm.Halt;
        ])
  in
  let cycles =
    match Engines.agree "first stores" prog with
    | Ok d ->
        Alcotest.(check (list int))
          "both words read back, page 2 reads 0" [ 7; 7; 0 ] d.Sim.output;
        d.Sim.cycles
    | Error e -> Alcotest.failf "first stores trapped: %s" e
  in
  for fuel = 1 to cycles + 1 do
    let r = Engines.agree ~fuel (Printf.sprintf "fuel %d" fuel) prog in
    Alcotest.(check bool)
      (Printf.sprintf "fuel %d completes" fuel)
      (fuel >= cycles) (Result.is_ok r)
  done

(* A store to 8192, one past the end of an 8192-word memory, from each
   store kind: the trap names the sw's pc. *)
let test_store_past_memory kind () =
  let code = [ Asm.Li (t1, 8191); Asm.Li (t0, 7) ] @ store_by kind 1 in
  let at = List.length code - 1 in
  let prog = only_main (code @ [ Asm.Halt ]) in
  match Engines.agree ~mem_words:8192 "store past memory" prog with
  | Ok _ -> Alcotest.fail "expected an out-of-bounds trap"
  | Error m ->
      Alcotest.(check string)
        "names the sw's pc"
        (Printf.sprintf "memory access out of bounds: 8192 (pc %d, in main)" at)
        m

(* The first 200 calls and 200 returns of a run, each with the cycle
   count its hook received and the pc control moves to: the callee entry,
   or the return address of the call it matches. *)
let hook_events prog =
  let events = ref [] and ncalls = ref 0 and nreturns = ref 0 in
  let sites = Stack.create () in
  let hooks =
    {
      Decode.h_call =
        (fun ~site ~target ~cycles ~contract_saves:_ ~contract_restores:_
             ~call_saves:_ ~call_restores:_ ->
          Stack.push site sites;
          if !ncalls < 200 then begin
            incr ncalls;
            events := ("call", cycles, target) :: !events
          end);
      h_return =
        (fun ~cycles ~contract_saves:_ ~contract_restores:_ ~call_saves:_
             ~call_restores:_ ->
          let ret = Stack.pop sites + 1 in
          if !nreturns < 200 then begin
            incr nreturns;
            events := ("return", cycles, ret) :: !events
          end);
    }
  in
  ignore (Decode.execute ~hooks (Decode.decode prog));
  List.rev !events

(* A hook's [cycles] counts the call or return itself, so the reference
   engine given exactly that much fuel runs out right after the transfer,
   and its trap names the pc control moved to. *)
let test_hook_cycles name () =
  let w = List.find (fun w -> w.W.name = name) W.all in
  let prog = compile_o3_sw w.W.source in
  let events = hook_events prog in
  Alcotest.(check bool)
    (name ^ ": 200 calls and 200 returns seen")
    true
    (List.length events = 400);
  List.iter
    (fun (kind, cycles, pc) ->
      let what = Printf.sprintf "%s: %s at cycle %d" name kind cycles in
      let prefix =
        Printf.sprintf "out of fuel after %d cycles (pc %d, " cycles pc
      in
      match Engines.capture (fun () -> Sim.run_reference ~fuel:cycles prog) with
      | Ok _ -> Alcotest.failf "%s: the reference run completed" what
      | Error m ->
          Alcotest.(check string)
            what prefix
            (String.sub m 0 (min (String.length m) (String.length prefix))))
    events

(* 1.25 M iterations of a loop around a call: straight-line code, taken
   and untaken branches, a call and a return, over 21 M cycles.  Every
   transfer between closures is a tail call, so the run needs no OCaml
   stack in proportion to its length.  It runs in a fresh domain, whose
   stack starts small, with the stack limit cut to 1 M words (8 MB), so
   a closure that called the next one and then returned would overflow
   it.  (The runner's own stack may already have grown past the limit.) *)
let long_run =
  {|
proc step(x, i) {
  if (i % 3 == 0) { return x + i; }
  return (x * 7 + i) % 1000003;
}
proc main() {
  var i = 0;
  var s = 1;
  while (i < 1250000) { s = step(s, i); i = i + 1; }
  print(s);
}
|}

let test_long_run () =
  let prog = compile_o3_sw long_run in
  let limit = (Gc.get ()).Gc.stack_limit in
  let set_limit l = Gc.set { (Gc.get ()) with Gc.stack_limit = l } in
  set_limit (1 lsl 20);
  let d =
    Fun.protect
      ~finally:(fun () -> set_limit limit)
      (fun () ->
        Domain.join (Domain.spawn (fun () -> Engines.agree "long run" prog)))
  in
  match d with
  | Error e -> Alcotest.failf "long run trapped: %s" e
  | Ok d ->
      Alcotest.(check bool)
        (Printf.sprintf "%d cycles, over 20 M" d.Sim.cycles)
        true
        (d.Sim.cycles > 20_000_000)

let () =
  Alcotest.run "sim-diff"
    [
      ( "decoded vs reference",
        List.map
          (fun w -> Alcotest.test_case w.W.name `Quick (test_workload w))
          W.all );
      ( "fuel at the last cycle",
        List.map
          (fun w -> Alcotest.test_case w.W.name `Quick (test_fuel_edges w))
          W.all );
      ( "hooks see exact cycles",
        List.map
          (fun name -> Alcotest.test_case name `Quick (test_hook_cycles name))
          [ "nim"; "dhrystone"; "calcc" ] );
      ( "fused pairs",
        Alcotest.test_case "every fuel, every pair kind" `Quick
          test_fuel_sweep
        :: List.map
             (fun (name, pair) ->
               Alcotest.test_case name `Quick (test_pair_traps pair))
             [
               ("addi; lw out of bounds", (addi, lw, 2));
               ("addi; sw out of bounds", (addi, sw, 2));
               ("subi; sw out of bounds", (subi, sw, 2));
               ("lw out of bounds; addi", (lw, addi, 1));
               ("move; lw out of bounds", (move, lw, 2));
               ("lw out of bounds; move", (lw, move, 1));
             ]
        @ [
            Alcotest.test_case "move; jal overflows the stack" `Quick
              test_call_overflow;
          ]
        @ List.map
            (fun ((kind, _, msg) as fault) ->
              Alcotest.test_case
                (Printf.sprintf "%s: %s" kind msg)
                `Quick (test_return_fault fault))
            return_faults );
      ( "first stores",
        List.concat_map
          (fun kind ->
            [
              Alcotest.test_case (kind ^ ": page boundary, every fuel") `Quick
                (test_first_store kind);
              Alcotest.test_case (kind ^ ": past memory") `Quick
                (test_store_past_memory kind);
            ])
          [ "sw"; "addi;sw"; "subi;sw" ] );
      ( "long run",
        [ Alcotest.test_case "loop and call, 21 M cycles" `Quick test_long_run ]
      );
      ( "static view",
        List.map
          (fun w -> Alcotest.test_case w.W.name `Quick (test_view w))
          W.all );
    ]
