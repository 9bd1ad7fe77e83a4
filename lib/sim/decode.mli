(** Pre-decoded threaded execution engine behind {!Sim.run}.

    [decode] compiles a linked program once into one flat int array, four
    words per pc (an opcode with the binop/relop/tag variant folded in,
    then pre-resolved operands), with every register operand validated
    and a per-pc procedure-meta index.  It also proves, from the code
    alone, which registers each procedure's activation may write, and
    keeps of each preserved-register contract only the registers that can
    change.

    [execute] compiles every pc, once per run, into one operand-specialised
    closure that captures that run's registers, page table and counters,
    so no two runs share state.  Each closure takes a budget of
    instructions still allowed, executes its instruction, and tail-calls
    the closure of the next pc — through branches, jumps, calls and
    returns — until the budget is spent, [halt] or a poison opcode is
    reached, or control leaves the code; it then returns that pc and
    leaves its unspent budget in one cell.  The main loop checks fuel and
    the pc's range as the reference engine does, executes [halt] and the
    poison opcodes, and enters every other pc with a budget of
    [fuel - cycles].  Calls and returns run inside their closures with the
    exact cycle count, so cycles are exact wherever they are observed: at
    every call and return hook, at a fuel trap (which names the exact pc),
    and in the outcome.  A few kinds of frequent adjacent pair ([li] then
    [b], [addi] then [lw], [addi] or [subi] then [sw], [lw] then [addi],
    [move] then [move] or [j]) share one closure that executes both,
    stops after the first when the budget allows only one, and names the
    pc of the instruction that traps.  Per-pc counts are bumped by each
    closure before it executes, so they stay exact after a trap; with
    them on, no pair is fused.  The contract checker is
    allocation-free and covers the pruned contracts; memory is paged, so a
    run allocates only the pages it stores to.  Behaviourally identical to
    {!Sim.run_reference}, which the differential test suite enforces. *)

exception Runtime_error of string

val error : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Runtime_error} with a formatted message. *)

val tag_index : Chow_codegen.Asm.tag -> int
(** Dense numbering of the traffic tags: data, scalar, save, callsave,
    stackarg. *)

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
    save-restore totals at that moment.  The hooks never fire on the
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

val attribute_pc : int array -> string array -> int -> string
(** [attribute_pc entries names pc] names the procedure whose entry is
    the greatest in [entries] at or below [pc], by binary search over
    [entries] sorted as {!Chow_codegen.Asm.proc_table} returns them;
    ["<stub>"] below the first entry, ["<unknown>"] when [entries] is
    empty.  For callers that look up many pcs against one table. *)

val proc_name_of : Chow_codegen.Asm.program -> int -> string
(** The procedure containing the given pc (nearest entry at or below it),
    ["<stub>"] for the startup stub, ["<unknown>"] when the program
    publishes no procedure addresses.  Error-path helper shared by both
    engines so trap messages agree. *)

val pc_counts : profile:bool -> int array option -> int -> int array
(** [pc_counts ~profile pc_buf ncode] is the per-pc count array of a run
    over [ncode] instructions: [pc_buf] zeroed (raising [Invalid_argument]
    when it is shorter than the code), else a fresh array when [profile]
    is set, else [[||]].  Shared by both engines. *)

val attribute_cycles :
  Chow_codegen.Asm.program -> int array -> (string * int) list
(** Fold a per-pc execution profile into per-procedure cycle totals in
    address order, a ["<stub>"] entry prepended when startup code ran.
    Shared by both engines so their attributions agree exactly. *)

val publish_metrics : outcome -> unit
(** Publish a completed run's counters into {!Chow_obs.Metrics} (a no-op
    while metrics are disabled).  Both engines call this with the same
    counter names. *)
