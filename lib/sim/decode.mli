(** Pre-decoded threaded execution engine behind {!Sim.run}.

    [decode] compiles a linked program once into one flat int array, four
    words per pc (an opcode with the binop/relop/tag variant folded in,
    then pre-resolved operands), with every register operand validated,
    and builds the program's static view ({!Chow_codegen.Linked}).  Of each
    preserved-register contract it keeps only the registers the view
    finds the activation may write.

    [execute] compiles every pc, once per run, into one operand-specialised
    closure over that run's registers, page table and counters, which
    tail-calls the next pc's closure — through branches, jumps, calls and
    returns, and through fourteen kinds of fused adjacent pair, those that
    end in a call or a return only while the checker is on and no hook or
    tracing listens — under a budget of instructions, so cycles, fuel
    traps and per-pc counts stay exact.  The contract checker is
    allocation-free, and its direct calls and returns run inline, leaving
    traps to the general path; memory is paged, so a run allocates only
    the pages it stores to, and the first store to a page, like a trap,
    leaves the store's closure by a tail call, so no memory closure keeps
    a stack frame.  Behaviourally identical to {!Sim.run_reference}, which
    the differential test suite enforces. *)

exception Runtime_error of string

val error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Runtime_error} with a formatted message. *)

type outcome = {
  output : int list;
  cycles : int;
  calls : int;
  data_loads : int;
  data_stores : int;
  scalar_loads : int;  (** scalar + save/restore + stack-arg loads *)
  scalar_stores : int;
  save_loads : int;
      (** the save/restore component alone: contract (entry/exit) plus
          around-call restores *)
  save_stores : int;
  call_save_loads : int;  (** the around-call subset of [save_loads] *)
  call_save_stores : int;
  proc_cycles : (string * int) list;
      (** cycles attributed to each procedure (in address order, with a
          ["<stub>"] entry for startup code when it executed), when run
          with [profile = true]; empty otherwise *)
}

type t
(** A program decoded for execution.  Decoding is total on linked
    programs; pre-link instructions ([Jal], [Lproc]) decode to a poison
    opcode that traps only if executed, matching the reference engine.
    So does an instruction naming a register outside the file: executing
    it raises [Invalid_argument "index out of bounds"], as the reference
    engine's register access does. *)

(** Call-path probes for {!execute}: [h_call] fires once per call
    transfer (with the call instruction's pc as [site] and the callee
    entry as [target]), [h_return] once per return, each carrying the
    executed-cycle count and the running contract / around-call
    save-restore totals at that moment, the transfer itself counted, so a
    profiler can segment them by activation.  The hooks never fire on the
    straight-line path, so execution without them is unchanged. *)
type hooks = {
  h_call :
    site:int ->
    target:int ->
    cycles:int ->
    contract_saves:int ->
    contract_restores:int ->
    call_saves:int ->
    call_restores:int ->
    unit;
  h_return :
    cycles:int ->
    contract_saves:int ->
    contract_restores:int ->
    call_saves:int ->
    call_restores:int ->
    unit;
}

val decode : Chow_codegen.Asm.program -> t

val linked : t -> Chow_codegen.Linked.t
(** The static view of the program, built by [decode]: procedure names
    for trap messages and per-procedure cycles, the meta index of each
    pc, and the may-write sets the checker prunes its contracts by. *)

val meta_checked : t -> int -> int array
(** [meta_checked t m] is the registers the contract checker snapshots
    and compares for meta [m] of {!linked}: the contract's preserved
    registers that its activation may write, in contract order, with -1
    standing for a register outside the file. *)

val default_fuel : int
(** The default [fuel] of both engines, 500 000 000 cycles; re-exported as
    {!Sim.default_fuel}. *)

val execute :
  ?fuel:int ->
  ?mem_words:int ->
  ?check:bool ->
  ?profile:bool ->
  ?hooks:hooks ->
  ?pc_buf:int array ->
  t ->
  outcome
(** Interpret a decoded program; parameters and semantics exactly as
    {!Sim.run}.  [hooks] installs the call-path probes above.  [pc_buf]
    supplies a buffer (at least as long as the code) that receives the
    per-pc execution counts — it is zeroed on entry and filled whether or
    not [profile] is set, letting a profiler read the counts without the
    outcome carrying them.

    Memory is a per-run table of 4096-word pages, ⌈[mem_words]/4096⌉
    entries that all start at one shared page of zeros which is never
    written.  A load bounds-checks its address against [mem_words], then
    reads through the table; a store (and each [data_init] word) first
    gives a still-shared page a fresh zeroed array of the run's own.  So a
    run allocates only the pages it stores to, an address never stored to
    reads 0, and no two runs (other threads, other domains, runs nested in
    a hook) share a page.  An out-of-range [data_init] address raises
    [Invalid_argument "index out of bounds"], as the flat image did. *)

val pc_counts : profile:bool -> int array option -> int -> int array
(** [pc_counts ~profile pc_buf ncode] is the per-pc count array of a run
    over [ncode] instructions: [pc_buf] zeroed (raising [Invalid_argument]
    when it is shorter than the code), else a fresh array when [profile]
    is set, else [[||]].  Shared by both engines. *)

val publish_metrics : outcome -> unit
(** Publish a completed run's counters into {!Chow_obs.Metrics} (a no-op
    while metrics are disabled).  Both engines call this with the same
    counter names. *)
