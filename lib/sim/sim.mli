(** Instruction-level simulator: the stand-in for the paper's MIPS R2000
    and its [pixie] tracing facility (§8).  Executes a linked program over
    a flat word-addressed memory; counts cycles (one per instruction),
    calls, and loads/stores by the {!Chow_codegen.Asm.tag} assigned at code
    generation. *)

exception Runtime_error of string

type outcome = Decode.outcome = {
  output : int list;  (** the values printed, in order *)
  cycles : int;
  calls : int;
  data_loads : int;  (** globals and arrays: not removable by allocation *)
  data_stores : int;
  scalar_loads : int;
      (** the paper's metric: scalar variables + save/restore + stack
          arguments — removable by a perfect allocator *)
  scalar_stores : int;
  save_loads : int;
      (** the save/restore component alone: contract (entry/exit) plus
          around-call restores *)
  save_stores : int;
  call_save_loads : int;  (** the around-call subset of [save_loads] *)
  call_save_stores : int;
  proc_cycles : (string * int) list;
      (** cycles attributed to each procedure (address order, ["<stub>"]
          first when startup code ran), when run with [profile = true];
          empty otherwise.  Both engines attribute identically. *)
}

val default_fuel : int
(** The cycles a run may execute when [fuel] is not given: 500 000 000.
    [pawnc serve] also takes it as the largest [fuel] a request may ask
    for. *)

(** [run prog] executes until [halt].

    - [check] (default true) arms the contract checker: at every return it
      verifies that the registers the callee's convention (or published
      usage mask) promises to preserve are unchanged, that the stack
      pointer is balanced, and that control returns to the call site; it
      also rejects calls that do not land on a procedure entry.
    - [profile] (default false) attributes cycles to procedures
      ([proc_cycles]).
    - [fuel] bounds executed instructions; [mem_words] sizes memory.

    Raises {!Runtime_error} on traps, contract violations, or exhausted
    fuel.

    This is the pre-decoded threaded engine ({!Decode}): the program is
    specialized once into a flat int-coded array, and each run compiles
    every pc into an operand-specialised closure that tail-calls the
    closure of the next pc, through branches, calls and returns, under a
    budget of instructions, so fuel and cycle counts stay exact.  Calls
    and returns go through an allocation-free contract checker that checks
    only the preserved registers decode finds some reachable instruction
    may write (the others cannot change, so the verdicts are those of the
    full check).  The decode pass and the closure build run on every call
    and are amortized over the execution; [Pipeline.run] instead decodes a
    compiled program once, on its first run, and keeps the decoded form. *)
val run :
  ?fuel:int ->
  ?mem_words:int ->
  ?check:bool ->
  ?profile:bool ->
  Chow_codegen.Asm.program ->
  outcome

(** The original direct interpreter over {!Chow_codegen.Asm.inst}
    variants, retained as the executable specification.  Same parameters,
    semantics, counters and error messages as {!run}; the differential
    test suite holds the two engines to identical outcomes on every
    workload and on random programs.  [pc_buf] receives the per-pc
    execution counts exactly as {!Decode.execute}'s does, so the decoded
    engine's counts can be held against these. *)
val run_reference :
  ?fuel:int ->
  ?mem_words:int ->
  ?check:bool ->
  ?profile:bool ->
  ?pc_buf:int array ->
  Chow_codegen.Asm.program ->
  outcome
