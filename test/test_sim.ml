(** Tests for the simulator itself: counters, tags, and — critically — the
    register-preservation contract checker, exercised with deliberately
    broken assembly to prove the watchdog bites. *)

module Machine = Chow_machine.Machine
module Asm = Chow_codegen.Asm
module Ir = Chow_ir.Ir
module Sim = Chow_sim.Sim
module Decode = Chow_sim.Decode
module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline

(* Hand-assembled program: a two-instruction startup stub calls the first
   procedure, then halts.  [procs] are (name, preserved, body) laid out in
   order from pc 2; each body is built from [addr], the entry pc of a
   procedure by name. *)
let link_procs procs =
  let entries =
    let pc = ref 2 in
    List.map
      (fun (name, _, body) ->
        let e = !pc in
        pc := e + List.length (body (fun _ -> 0));
        (name, e))
      procs
  in
  let addr name = List.assoc name entries in
  {
    Asm.code =
      Array.of_list
        (Asm.Jal_pc (snd (List.hd entries))
        :: Asm.Halt
        :: List.concat_map (fun (_, _, body) -> body addr) procs);
    entry = 0;
    proc_addrs = entries;
    metas =
      List.map2
        (fun (name, preserved, _) (_, e) ->
          (e, { Asm.m_name = name; m_preserved = preserved }))
        procs entries;
    data_size = 0;
    data_init = [];
  }

(* [body] inside a one-word frame that saves and restores ra, then returns *)
let framed body =
  [
    Asm.Binopi (Ir.Sub, Machine.sp, Machine.sp, 1);
    Asm.Sw (Machine.ra, Machine.sp, 0, Asm.Tsave);
  ]
  @ body
  @ [
      Asm.Lw (Machine.ra, Machine.sp, 0, Asm.Tsave);
      Asm.Binopi (Ir.Add, Machine.sp, Machine.sp, 1);
      Asm.Jr;
    ]

(* main sets s0, calls f, prints s0; f's body starts at pc 10 *)
let program ~f_body ~preserved =
  link_procs
    [
      ( "main",
        Machine.callee_saved,
        fun addr ->
          framed
            [
              Asm.Li (Machine.s0, 77);
              Asm.Jal_pc (addr "f");
              Asm.Print Machine.s0;
            ] );
      ("f", preserved, fun _ -> f_body);
    ]

let test_checker_catches_clobber () =
  let prog =
    program
      ~f_body:[ Asm.Li (Machine.s0, 0); Asm.Jr ]
      ~preserved:Machine.callee_saved
  in
  match Sim.run prog with
  | _ -> Alcotest.fail "expected contract violation"
  | exception Sim.Runtime_error msg ->
      Alcotest.(check bool) "names the register" true
        (String.length msg > 0
        && String.index_opt msg '$' <> None)

let test_checker_accepts_mask_exempt_clobber () =
  (* same clobber, but f's published contract says s0 may be modified *)
  let prog =
    program
      ~f_body:[ Asm.Li (Machine.s0, 0); Asm.Jr ]
      ~preserved:(List.filter (fun r -> r <> Machine.s0) Machine.callee_saved)
  in
  let o = Sim.run prog in
  Alcotest.(check (list int)) "runs, s0 clobbered visibly" [ 0 ] o.Sim.output

let test_checker_catches_sp_imbalance () =
  let prog =
    program
      ~f_body:
        [ Asm.Binopi (Ir.Sub, Machine.sp, Machine.sp, 3); Asm.Jr ]
      ~preserved:[]
  in
  match Sim.run prog with
  | _ -> Alcotest.fail "expected sp violation"
  | exception Sim.Runtime_error msg ->
      Alcotest.(check bool) "mentions stack pointer" true
        (String.length msg > 5)

let test_checker_catches_wrong_return () =
  let prog =
    program
      ~f_body:[ Asm.Li (Machine.ra, 1); Asm.Jr ]
      ~preserved:[]
  in
  match Sim.run prog with
  | _ -> Alcotest.fail "expected return-address violation"
  | exception Sim.Runtime_error _ -> ()

let test_counters () =
  let src =
    {|
var g = 1;
proc f(x) { g = g + x; return g; }
proc main() { print(f(1)); print(f(2)); }
|}
  in
  let c = Pipeline.compile_source Config.baseline (Pipeline.Src src) in
  let o = Pipeline.run c in
  Alcotest.(check (list int)) "output" [ 2; 4 ] o.Sim.output;
  Alcotest.(check int) "three calls (main, f, f)" 3 o.Sim.calls;
  (* g is a global: each f loads it for [g + x], stores it, and loads it
     again for [return g] — globals are not promoted to registers *)
  Alcotest.(check int) "data loads" 4 o.Sim.data_loads;
  Alcotest.(check int) "data stores" 2 o.Sim.data_stores;
  Alcotest.(check bool) "cycles counted" true (o.Sim.cycles > 10)

let test_save_tags_attributed () =
  (* a recursive function must save ra: save traffic appears under the save
     tags, not under scalar-variable traffic *)
  let src =
    {|
proc down(n) { if (n == 0) { return 0; } return down(n - 1) + 1; }
proc main() { print(down(50)); }
|}
  in
  let o = Pipeline.run (Pipeline.compile_source Config.baseline (Pipeline.Src src)) in
  Alcotest.(check bool) "save loads > 40" true (o.Sim.save_loads > 40);
  Alcotest.(check bool) "save traffic within scalar metric" true
    (o.Sim.scalar_loads >= o.Sim.save_loads)

let test_unlinked_instruction_rejected () =
  let prog =
    {
      Asm.code = [| Asm.Jal "f" |];
      entry = 0;
      proc_addrs = [];
      metas = [];
      data_size = 0;
      data_init = [];
    }
  in
  match Sim.run prog with
  | _ -> Alcotest.fail "expected unlinked error"
  | exception Sim.Runtime_error _ -> ()

let test_stack_overflow_detected () =
  let src =
    {|
proc forever(n) { return forever(n + 1); }
proc main() { print(forever(0)); }
|}
  in
  let c = Pipeline.compile_source Config.baseline (Pipeline.Src src) in
  match Pipeline.run c with
  | _ -> Alcotest.fail "expected stack overflow"
  | exception Sim.Runtime_error msg ->
      (* the trap names the executing procedure and pc *)
      let has s = Test_server.contains s msg in
      Alcotest.(check bool)
        (Printf.sprintf "names pc and procedure (%s)" msg)
        true
        (has "stack overflow" && has "pc " && has "in forever")

(* ---- differential testing: decoded engine vs. reference engine ------- *)

let capture = Engines.capture

(** Run both engines on the same program, with block profiling off and on,
    and insist on identical outcomes each time (see {!Engines.agree}). *)
let check_engines_agree ?fuel ?mem_words ?check name prog =
  ignore (Engines.agree ?fuel ?mem_words ?check name prog)

let test_diff_fuel_exhaustion () =
  let src = "proc main() { var x = 1; while (x == 1) { x = 1; } }" in
  let prog = Pipeline.program (Pipeline.compile_source Config.baseline (Pipeline.Src src)) in
  check_engines_agree ~fuel:100 "fuel" prog;
  match capture (fun () -> Sim.run ~fuel:100 prog) with
  | Ok _ -> Alcotest.fail "expected fuel exhaustion"
  | Error msg ->
      (* satellite fix: the message now names the executing procedure and pc *)
      let has s = Test_server.contains s msg in
      Alcotest.(check bool) "names pc and procedure" true
        (has "out of fuel" && has "pc " && has "in main")

let test_diff_oob_context () =
  let prog =
    program ~f_body:[ Asm.Lw (Machine.t0, Machine.zero, -1, Asm.Tdata) ]
      ~preserved:[]
  in
  check_engines_agree "oob" prog;
  match capture (fun () -> Sim.run prog) with
  | Ok _ -> Alcotest.fail "expected out-of-bounds trap"
  | Error msg ->
      let has s = Test_server.contains s msg in
      Alcotest.(check bool) "names pc and procedure" true
        (has "out of bounds" && has "pc " && has "in f")

let test_diff_wild_call () =
  (* pc 3 is mid-main, not a procedure entry: both engines must call it a
     wild call with the same message *)
  let prog =
    program
      ~f_body:[ Asm.Li (Machine.t0, 3); Asm.Jalr Machine.t0; Asm.Jr ]
      ~preserved:[]
  in
  check_engines_agree "wild call" prog

let test_diff_division_by_zero () =
  let prog =
    program
      ~f_body:
        [
          Asm.Li (Machine.t0, 0);
          Asm.Binop (Ir.Div, Machine.t0, Machine.t0, Machine.t0);
          Asm.Jr;
        ]
      ~preserved:[]
  in
  check_engines_agree "division by zero" prog

(* ---- chains: straight-line runs and their budget -------------------- *)

(* a program with no procedure table: traps name "<unknown>" *)
let bare code =
  {
    Asm.code = Array.of_list code;
    entry = 0;
    proc_addrs = [];
    metas = [];
    data_size = 0;
    data_init = [];
  }

(* every fuel from 0 past the program's cycle count: each budget stops
   some chain at a different instruction, or lets the run finish.  Two
   pages of memory hold these programs, and keep the reference engine's
   flat image small across thousands of runs. *)
let sweep_fuel name prog ~upto =
  for fuel = 0 to upto do
    check_engines_agree ~fuel ~mem_words:(2 * 4096)
      (Printf.sprintf "%s fuel %d" name fuel)
      prog
  done

let small_workload =
  {|
var tab[8];
proc fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
proc main() {
  var i = 0;
  while (i < 8) { tab[i] = fib(i) * 3 + i; i = i + 1; }
  print(tab[7]);
}
|}

let test_fuel_sweep () =
  let prog =
    Pipeline.program
      (Pipeline.compile_source Config.o3_sw (Pipeline.Src small_workload))
  in
  let cycles = (Sim.run prog).Sim.cycles in
  (* the sweep must cross the end of the run *)
  Alcotest.(check bool)
    (Printf.sprintf "run of %d cycles ends inside the sweep" cycles)
    true
    (cycles > 500 && cycles < 2000);
  sweep_fuel "small" prog ~upto:2000

let test_jump_into_run () =
  (* pcs 2-7 are one straight-line run ending in a [b]; the [j] at pc 1
     enters it at pc 4, and the [b] re-enters it at pc 2 *)
  let prog =
    bare
      [
        Asm.Li (Machine.s0, 3);
        Asm.J 4;
        Asm.Binopi (Ir.Add, Machine.t0, Machine.t0, 100);
        Asm.Binopi (Ir.Add, Machine.t0, Machine.t0, 10);
        Asm.Binopi (Ir.Add, Machine.t0, Machine.t0, 1);
        Asm.Print Machine.t0;
        Asm.Binopi (Ir.Sub, Machine.s0, Machine.s0, 1);
        Asm.B (Ir.Ne, Machine.s0, Machine.zero, 2);
        Asm.Halt;
      ]
  in
  let o = Sim.run prog in
  Alcotest.(check (list int)) "output" [ 1; 112; 223 ] o.Sim.output;
  Alcotest.(check int) "cycles" 19 o.Sim.cycles;
  check_engines_agree "jump into a run" prog;
  sweep_fuel "jump into a run" prog ~upto:25

let test_run_off_the_end () =
  let prog =
    bare
      [
        Asm.Li (Machine.t0, 7);
        Asm.Print Machine.t0;
        Asm.Binopi (Ir.Add, Machine.t0, Machine.t0, 1);
      ]
  in
  (match capture (fun () -> Sim.run prog) with
  | Ok _ -> Alcotest.fail "expected the run to leave the code"
  | Error msg -> Alcotest.(check string) "message" "pc out of range: 3" msg);
  check_engines_agree "off the end" prog;
  sweep_fuel "off the end" prog ~upto:5

let test_trap_mid_run_counts () =
  (* a straight-line run whose third instruction traps *)
  let prog =
    bare
      [
        Asm.Li (Machine.t0, 1);
        Asm.Li (Machine.s0, 2);
        Asm.Lw (Machine.a0, Machine.zero, -1, Asm.Tdata);
        Asm.Print Machine.t0;
        Asm.Halt;
      ]
  in
  check_engines_agree "trap mid-run" prog;
  List.iter
    (fun profile ->
      let counts = Array.make 5 7 in
      (match
         capture (fun () ->
             Decode.execute ~profile ~pc_buf:counts (Decode.decode prog))
       with
      | Ok _ -> Alcotest.fail "expected an out-of-bounds trap"
      | Error msg ->
          Alcotest.(check string) "message"
            "memory access out of bounds: -1 (pc 2, in <unknown>)" msg);
      Alcotest.(check (array int))
        (Printf.sprintf "counts up to the trap (profile %b)" profile)
        [| 1; 1; 1; 0; 0 |] counts)
    [ false; true ]

let test_transfer_out_of_code () =
  (* with the checker off, [jr] follows any [ra]: one outside the code
     leaves the closures for the loop's range trap, as does a static [j]
     or taken [b] out of the code *)
  let off_end name prog target =
    (match capture (fun () -> Sim.run ~check:false prog) with
    | Ok _ -> Alcotest.failf "%s: expected the run to leave the code" name
    | Error msg ->
        Alcotest.(check string)
          name
          (Printf.sprintf "pc out of range: %d" target)
          msg);
    List.iter
      (fun check -> check_engines_agree ~check name prog)
      [ true; false ];
    for fuel = 0 to 5 do
      check_engines_agree ~check:false ~fuel
        (Printf.sprintf "%s fuel %d" name fuel)
        prog
    done
  in
  List.iter
    (fun target ->
      off_end
        (Printf.sprintf "jr to %d" target)
        (bare
           [ Asm.Li (Machine.ra, target); Asm.Li (Machine.t0, 1); Asm.Jr;
             Asm.Halt ])
        target)
    [ -4; -1; 4; 5; 12 ];
  off_end "j out" (bare [ Asm.Li (Machine.t0, 1); Asm.J 9; Asm.Halt ]) 9;
  off_end "b out"
    (bare
       [ Asm.Li (Machine.t0, 1);
         Asm.B (Ir.Ne, Machine.t0, Machine.zero, -3); Asm.Halt ])
    (-3)

(* ---- the decoded engine's pruned contract checker ------------------- *)

let expect_clobber name reg prog =
  check_engines_agree name prog;
  match capture (fun () -> Sim.run prog) with
  | Ok _ -> Alcotest.failf "%s: expected a contract violation" name
  | Error msg ->
      let has s = Test_server.contains s msg in
      Alcotest.(check bool)
        (Printf.sprintf "%s names %s (%s)" name (Machine.name reg) msg)
        true
        (has ("clobbered preserved register " ^ Machine.name reg))

let test_checker_call_clobber () =
  (* f promises to keep s1 and never writes it; the clobber happens in g,
     whose own contract allows it, reached through a static call or only
     through a register call *)
  let s1 = Machine.s0 + 1 in
  let prog call =
    link_procs
      [
        ("main", [], fun addr -> framed [ Asm.Jal_pc (addr "f") ]);
        ("f", [ s1 ], fun addr -> framed (call (addr "g")));
        ("g", [], fun _ -> [ Asm.Li (s1, 5); Asm.Jr ]);
      ]
  in
  expect_clobber "jal" s1 (prog (fun g -> [ Asm.Jal_pc g ]));
  expect_clobber "jalr" s1
    (prog (fun g -> [ Asm.Li (Machine.t0, g); Asm.Jalr Machine.t0 ]))

let test_checker_branch_clobber () =
  (* f clobbers s0 only when its branch is taken *)
  let prog taken =
    link_procs
      [
        ( "main",
          [],
          fun addr ->
            framed
              [
                Asm.Li (Machine.s0, 77);
                Asm.Jal_pc (addr "f");
                Asm.Print Machine.s0;
              ] );
        ( "f",
          Machine.callee_saved,
          fun addr ->
            [
              Asm.Li (Machine.t0, if taken then 0 else 1);
              Asm.B (Ir.Eq, Machine.t0, Machine.zero, addr "f" + 3);
              Asm.Jr;
              Asm.Li (Machine.s0, 0);
              Asm.Jr;
            ] );
      ]
  in
  check_engines_agree "branch not taken" (prog false);
  Alcotest.(check (list int))
    "not taken: clean run" [ 77 ] (Sim.run (prog false)).Sim.output;
  expect_clobber "branch taken" Machine.s0 (prog true)

(* Memory-image reuse: [store_high] leaves a value near the top of memory;
   a later run must find zero there. *)
let high = (1 lsl 20) - 4096

let store_high =
  bare
    [
      Asm.Li (Machine.t0, 12345);
      Asm.Li (Machine.a0, high);
      Asm.Sw (Machine.t0, Machine.a0, 0, Asm.Tdata);
      Asm.Halt;
    ]

let load_high =
  bare
    [
      Asm.Li (Machine.a0, high);
      Asm.Lw (Machine.t0, Machine.a0, 0, Asm.Tdata);
      Asm.Print Machine.t0;
      Asm.Halt;
    ]

let fresh_load () =
  ignore (Sim.run store_high);
  (Sim.run load_high).Sim.output

let test_mem_reuse_sequential () =
  Alcotest.(check (list int))
    "reference reads zero" [ 0 ] (Sim.run_reference load_high).Sim.output;
  for _ = 1 to 3 do
    Alcotest.(check (list int)) "decoded reads zero" [ 0 ] (fresh_load ())
  done

let test_mem_reuse_domains () =
  let worker () = List.init 20 (fun _ -> fresh_load ()) in
  let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
  List.iter
    (fun outs ->
      List.iter (Alcotest.(check (list int)) "each domain reads zero" [ 0 ]) outs)
    [ Domain.join d1; Domain.join d2 ]

let test_mem_reuse_nested () =
  (* main stores 777 high, calls f, then reads it back; each call runs the
     two programs above inside the call hook.  Sharing main's image with
     those nested runs would zero its 777. *)
  let prog =
    link_procs
      [
        ( "main",
          [],
          fun addr ->
            framed
              [
                Asm.Li (Machine.t0, 777);
                Asm.Li (Machine.a0, high);
                Asm.Sw (Machine.t0, Machine.a0, 0, Asm.Tdata);
                Asm.Jal_pc (addr "f");
                Asm.Lw (Machine.t0, Machine.a0, 0, Asm.Tdata);
                Asm.Print Machine.t0;
              ] );
        ("f", [], fun _ -> [ Asm.Jr ]);
      ]
  in
  let nested = ref [] in
  let hooks =
    {
      Decode.h_call =
        (fun ~site:_ ~target:_ ~cycles:_ ~contract_saves:_
             ~contract_restores:_ ~call_saves:_ ~call_restores:_ ->
          nested := fresh_load () :: !nested);
      h_return =
        (fun ~cycles:_ ~contract_saves:_ ~contract_restores:_ ~call_saves:_
             ~call_restores:_ -> ());
    }
  in
  let o = Decode.execute ~hooks (Decode.decode prog) in
  Alcotest.(check (list int))
    "outer image untouched" (Sim.run_reference prog).Sim.output o.Sim.output;
  Alcotest.(check (list int)) "outer output" [ 777 ] o.Sim.output;
  Alcotest.(check (list (list int)))
    "nested runs read zero" [ [ 0 ]; [ 0 ] ] !nested;
  Alcotest.(check (list int)) "then a plain run reads zero" [ 0 ] (fresh_load ())

(* Paged memory: the decoded engine keeps 4096-word pages that start out
   shared and zero.  [peeks addrs] loads and prints each address;
   [poke_peek addrs] first stores a distinct value at each. *)
let page = 4096

let peeks addrs =
  List.concat_map
    (fun a ->
      [
        Asm.Li (Machine.a0, a);
        Asm.Lw (Machine.t0, Machine.a0, 0, Asm.Tdata);
        Asm.Print Machine.t0;
      ])
    addrs

let poke_peek addrs =
  bare
    (List.concat_map
       (fun a ->
         [
           Asm.Li (Machine.t0, a + 1);
           Asm.Li (Machine.a0, a);
           Asm.Sw (Machine.t0, Machine.a0, 0, Asm.Tdata);
         ])
       addrs
    @ peeks addrs
    @ [ Asm.Halt ])

let test_paged_last_word () =
  (* a size that is not a whole number of pages: the last word works, the
     one past it traps with the reference's message *)
  List.iter
    (fun mem_words ->
      let name = Printf.sprintf "mem_words %d" mem_words in
      let last = poke_peek [ mem_words - 1 ] in
      check_engines_agree ~mem_words name last;
      Alcotest.(check (list int))
        (name ^ ": last word reads back")
        [ mem_words ]
        (Sim.run ~mem_words last).Sim.output;
      List.iter
        (fun (what, inst) ->
          let past =
            bare [ Asm.Li (Machine.a0, mem_words); inst; Asm.Halt ]
          in
          check_engines_agree ~mem_words (name ^ ": " ^ what) past;
          match capture (fun () -> Sim.run ~mem_words past) with
          | Ok _ -> Alcotest.failf "%s: %s past the end did not trap" name what
          | Error msg ->
              Alcotest.(check string)
                (name ^ ": " ^ what ^ " message")
                (Printf.sprintf
                   "memory access out of bounds: %d (pc 1, in <unknown>)"
                   mem_words)
                msg)
        [
          ("load", Asm.Lw (Machine.t0, Machine.a0, 0, Asm.Tdata));
          ("store", Asm.Sw (Machine.a0, Machine.a0, 0, Asm.Tdata));
        ])
    [ page + 1; 10_000 ]

let test_paged_page_edges () =
  let prog = poke_peek [ page - 1; page; (2 * page) - 1; 0 ] in
  check_engines_agree "page edges" prog;
  Alcotest.(check (list int))
    "stores either side of a page edge read back"
    [ page; page + 1; 2 * page; 1 ]
    (Sim.run prog).Sim.output

let test_paged_gap_reads_zero () =
  (* data at the bottom, the stack at the top: words between them, and
     words past the initialised data, were never stored and read 0 *)
  let gap = [ 8; page; 300_000; (1 lsl 20) - page - 1 ] in
  let prog =
    {
      (bare (peeks ([ 0; 7 ] @ gap) @ [ Asm.Halt ])) with
      Asm.data_size = 8;
      data_init = [ (0, 5); (7, 9) ];
    }
  in
  check_engines_agree "gap" prog;
  Alcotest.(check (list int))
    "data, then zeros" [ 5; 9; 0; 0; 0; 0 ] (Sim.run prog).Sim.output

let test_paged_after_trap () =
  (* a run that stores high and then traps leaves nothing behind *)
  let store_then_trap =
    bare
      [
        Asm.Li (Machine.t0, 12345);
        Asm.Li (Machine.a0, high);
        Asm.Sw (Machine.t0, Machine.a0, 0, Asm.Tdata);
        Asm.Lw (Machine.t0, Machine.zero, -1, Asm.Tdata);
        Asm.Halt;
      ]
  in
  for _ = 1 to 3 do
    (match capture (fun () -> Sim.run store_then_trap) with
    | Ok _ -> Alcotest.fail "expected an out-of-bounds trap"
    | Error _ -> ());
    Alcotest.(check (list int))
      "the next run reads zero" [ 0 ] (Sim.run load_high).Sim.output
  done

let test_paged_data_init_bounds () =
  (* an initialiser outside memory fails as the flat image did, including
     one past a partial last page *)
  List.iter
    (fun (mem_words, addr) ->
      let prog =
        { (bare [ Asm.Halt ]) with Asm.data_init = [ (addr, 1) ] }
      in
      let raised f =
        match f () with
        | _ -> "no exception"
        | exception Invalid_argument m -> m
      in
      Alcotest.(check string)
        (Printf.sprintf "data_init at %d of %d" addr mem_words)
        (raised (fun () -> Sim.run_reference ~mem_words prog))
        (raised (fun () -> Sim.run ~mem_words prog)))
    [ (page + 1, page + 1); (page + 1, 2 * page - 1); (1 lsl 20, -1) ]

let test_paged_touch_proportional () =
  (* 64 M words would be 512 MB as one flat image; paged, the run holds
     only its page table and the few pages it stores to.  The heap is
     sampled at every call, while the run's memory is live. *)
  let src =
    "proc fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
     proc main() { print(fib(15)); }"
  in
  let prog =
    Pipeline.program (Pipeline.compile_source Config.o3_sw (Pipeline.Src src))
  in
  let heap () = (Gc.quick_stat ()).Gc.heap_words in
  let before = heap () in
  let peak = ref before in
  let hooks =
    {
      Decode.h_call =
        (fun ~site:_ ~target:_ ~cycles:_ ~contract_saves:_
             ~contract_restores:_ ~call_saves:_ ~call_restores:_ ->
          peak := max !peak (heap ()));
      h_return =
        (fun ~cycles:_ ~contract_saves:_ ~contract_restores:_ ~call_saves:_
             ~call_restores:_ -> ());
    }
  in
  let o = Decode.execute ~mem_words:(1 lsl 26) ~hooks (Decode.decode prog) in
  let growth_mb = (max !peak (heap ()) - before) * (Sys.word_size / 8) / (1 lsl 20) in
  Alcotest.(check bool)
    (Printf.sprintf "heap growth %d MB under 16 MB" growth_mb)
    true (growth_mb < 16);
  Alcotest.(check (list int))
    "same output as at the default size" (Sim.run prog).Sim.output
    o.Sim.output

(* Random differential testing: compile a random Genprog program, run both
   engines on it, then mutate one instruction of the linked image and
   insist the engines still agree — including on the exact error message.
   The mutations are traps (division by zero, out-of-bounds access, a wild
   call) and the two the decoded engine's pruned contract checker must
   see through: a clobber of an allocatable register, and a jump to any pc,
   which can carry control into another procedure's body.  A wild return
   address ([wildret]) sends the next [jr] or [jalr] through [ra] to any
   pc, in the code or up to a few words outside it.  Every program runs
   with the checker on and off: off, no shadow stack stands between a
   wild return and its target, so the engines' own range checks must
   agree. *)

let allocatable = Array.of_list Machine.full.Machine.allocatable

(* [kind], when given, picks the mutation instead of [rng] *)
let mutate ?kind rng (prog : Asm.program) =
  let code = Array.copy prog.Asm.code in
  let n = Array.length code in
  let pc = 2 + Random.State.int rng (max 1 (n - 2)) in
  let k = match kind with Some k -> k | None -> Random.State.int rng 6 in
  let kind, inst =
    match k with
    | 0 -> ("divzero", Asm.Binopi (Ir.Div, Machine.t0, Machine.t0, 0))
    | 1 ->
        ( "oob",
          Asm.Lw
            (Machine.t0, Machine.zero, -1 - Random.State.int rng 7, Asm.Tdata)
        )
    | 2 -> ("wildcall", Asm.Jal_pc (Random.State.int rng (n + 8)))
    | 3 ->
        let r = allocatable.(Random.State.int rng (Array.length allocatable)) in
        ("clobber", Asm.Li (r, Random.State.int rng 1000))
    | 4 -> ("wildjump", Asm.J (Random.State.int rng n))
    | _ -> ("wildret", Asm.Li (Machine.ra, Random.State.int rng (n + 12) - 4))
  in
  code.(pc) <- inst;
  (Printf.sprintf "%s@%d" kind pc, { prog with Asm.code = code })

let prop_differential =
  QCheck.Test.make ~count:60
    ~name:"decoded and reference engines agree on random programs"
    (QCheck.make (QCheck.Gen.int_bound 1_000_000) ~print:(fun seed ->
         Printf.sprintf "seed %d:\n%s" seed (Genprog.generate ~seed ())))
    (fun seed ->
      let src = Genprog.generate ~seed () in
      let rng = Random.State.make [| seed; 0xd1ff |] in
      let config = if seed mod 2 = 0 then Config.o3_sw else Config.baseline in
      let prog = Pipeline.program (Pipeline.compile_source config (Pipeline.Src src)) in
      (* bounded fuel: a mutation can loop or recurse without limit *)
      let mname, mutated = mutate rng prog in
      List.iter
        (fun check ->
          check_engines_agree ~check
            (Printf.sprintf "seed %d check %b" seed check)
            prog;
          check_engines_agree ~check ~fuel:200_000
            (Printf.sprintf "seed %d %s check %b" seed mname check)
            mutated)
        [ true; false ];
      true)

(* The static view against its oracles on the same random programs, each
   also under every mutation kind: procedure names, per-procedure sums and
   the checked registers of every contract. *)
let prop_view_oracles =
  QCheck.Test.make ~count:40
    ~name:"static view equals its oracles on random and mutated programs"
    (QCheck.make (QCheck.Gen.int_bound 1_000_000) ~print:(fun seed ->
         Printf.sprintf "seed %d:\n%s" seed (Genprog.generate ~seed ())))
    (fun seed ->
      let src = Genprog.generate ~seed () in
      let rng = Random.State.make [| seed; 0x5ee |] in
      let config = if seed mod 2 = 0 then Config.o3_sw else Config.baseline in
      let prog = Pipeline.program (Pipeline.compile_source config (Pipeline.Src src)) in
      Linked_oracle.check (Printf.sprintf "seed %d" seed) prog;
      for kind = 0 to 5 do
        let mname, mutated = mutate ~kind rng prog in
        Linked_oracle.check (Printf.sprintf "seed %d %s" seed mname) mutated
      done;
      true)

(* Wild-memory fuzz: mutate one instruction the program executes into a
   load or store at an in-bounds address drawn across the whole memory,
   favouring page edges and the last word, so the paged engine's reads of
   untouched pages, first stores to a page, and stores into live frames
   and data are all held to the flat reference. *)
let wild_address rng mem_words =
  let pages = (mem_words + page - 1) / page in
  let a =
    match Random.State.int rng 5 with
    | 0 -> (page * (1 + Random.State.int rng pages)) - 1
    | 1 -> page * Random.State.int rng pages
    | 2 -> mem_words - 1
    | 3 -> mem_words - 1 - Random.State.int rng 256
    | _ -> Random.State.int rng mem_words
  in
  min a (mem_words - 1)

let mutate_memory rng mem_words (prog : Asm.program) =
  let counts = Array.make (Array.length prog.Asm.code) 0 in
  (* the counts fill as the run goes, so a run that traps still has them *)
  (try ignore (Decode.execute ~fuel:200_000 ~pc_buf:counts (Decode.decode prog))
   with Decode.Runtime_error _ -> ());
  let executed =
    List.filter (fun pc -> pc >= 2 && counts.(pc) > 0)
      (List.init (Array.length counts) Fun.id)
  in
  let pc =
    match executed with
    | [] -> 2 + Random.State.int rng (max 1 (Array.length counts - 2))
    | l -> List.nth l (Random.State.int rng (List.length l))
  in
  let addr = wild_address rng mem_words in
  let r = allocatable.(Random.State.int rng (Array.length allocatable)) in
  let tag =
    [| Asm.Tdata; Asm.Tscalar; Asm.Tsave; Asm.Tcallsave; Asm.Tstackarg |].(
    Random.State.int rng 5)
  in
  let kind, inst =
    if Random.State.bool rng then ("lw", Asm.Lw (r, Machine.zero, addr, tag))
    else ("sw", Asm.Sw (r, Machine.zero, addr, tag))
  in
  let code = Array.copy prog.Asm.code in
  code.(pc) <- inst;
  (Printf.sprintf "%s %d@%d" kind addr pc, { prog with Asm.code = code })

let prop_wild_memory =
  QCheck.Test.make ~count:60
    ~name:"paged and flat memory agree on wild loads and stores"
    (QCheck.make (QCheck.Gen.int_bound 1_000_000) ~print:(fun seed ->
         Printf.sprintf "seed %d:\n%s" seed (Genprog.generate ~seed ())))
    (fun seed ->
      let src = Genprog.generate ~seed () in
      let rng = Random.State.make [| seed; 0x3e3 |] in
      let config = if seed mod 2 = 0 then Config.o3_sw else Config.baseline in
      let prog = Pipeline.program (Pipeline.compile_source config (Pipeline.Src src)) in
      (* every other seed sizes memory off a page boundary *)
      let mem_words =
        if seed mod 4 < 2 then 1 lsl 20
        else (1 lsl 20) - 1 - Random.State.int rng (page - 1)
      in
      let mname, mutated = mutate_memory rng mem_words prog in
      check_engines_agree ~fuel:200_000 ~mem_words
        (Printf.sprintf "seed %d %s of %d" seed mname mem_words)
        mutated;
      true)

let suite =
  ( "sim",
    [
      Alcotest.test_case "checker: callee-saved clobber" `Quick
        test_checker_catches_clobber;
      Alcotest.test_case "checker: mask-exempt clobber ok" `Quick
        test_checker_accepts_mask_exempt_clobber;
      Alcotest.test_case "checker: sp imbalance" `Quick
        test_checker_catches_sp_imbalance;
      Alcotest.test_case "checker: wrong return" `Quick
        test_checker_catches_wrong_return;
      Alcotest.test_case "counters" `Quick test_counters;
      Alcotest.test_case "save-tag attribution" `Quick
        test_save_tags_attributed;
      Alcotest.test_case "unlinked instruction" `Quick
        test_unlinked_instruction_rejected;
      Alcotest.test_case "stack overflow" `Quick test_stack_overflow_detected;
      Alcotest.test_case "diff: fuel exhaustion context" `Quick
        test_diff_fuel_exhaustion;
      Alcotest.test_case "diff: oob context" `Quick test_diff_oob_context;
      Alcotest.test_case "diff: wild call" `Quick test_diff_wild_call;
      Alcotest.test_case "diff: division by zero" `Quick
        test_diff_division_by_zero;
      Alcotest.test_case "chains: fuel sweep over a small workload" `Quick
        test_fuel_sweep;
      Alcotest.test_case "chains: jump into the middle of a run" `Quick
        test_jump_into_run;
      Alcotest.test_case "chains: run falls off the end" `Quick
        test_run_off_the_end;
      Alcotest.test_case "chains: trap mid-run, exact pc counts" `Quick
        test_trap_mid_run_counts;
      Alcotest.test_case "threads: jr, j and b out of the code" `Quick
        test_transfer_out_of_code;
      Alcotest.test_case "checker: clobber behind jal and jalr" `Quick
        test_checker_call_clobber;
      Alcotest.test_case "checker: clobber on one branch" `Quick
        test_checker_branch_clobber;
      Alcotest.test_case "memory image: sequential reuse" `Quick
        test_mem_reuse_sequential;
      Alcotest.test_case "memory image: two domains" `Quick
        test_mem_reuse_domains;
      Alcotest.test_case "memory image: nested in a hook" `Quick
        test_mem_reuse_nested;
      Alcotest.test_case "paged memory: last word, partial page" `Quick
        test_paged_last_word;
      Alcotest.test_case "paged memory: page edges" `Quick
        test_paged_page_edges;
      Alcotest.test_case "paged memory: untouched gap reads zero" `Quick
        test_paged_gap_reads_zero;
      Alcotest.test_case "paged memory: clean after a trap" `Quick
        test_paged_after_trap;
      Alcotest.test_case "paged memory: data_init out of range" `Quick
        test_paged_data_init_bounds;
      Alcotest.test_case "paged memory: footprint tracks touched pages"
        `Quick test_paged_touch_proportional;
      QCheck_alcotest.to_alcotest prop_differential;
      QCheck_alcotest.to_alcotest prop_wild_memory;
      QCheck_alcotest.to_alcotest prop_view_oracles;
    ] )
