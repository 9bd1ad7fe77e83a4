(** The static view of a linked program: what the simulator and the
    penalty profiler read of an {!Asm.program} besides its instructions,
    built once per program.  Total on any program, linked or not: no pc,
    entry or target outside the code raises. *)

type t = {
  prog : Asm.program;
  entries : int array;  (** procedure entry pcs, ascending *)
  procs : string array;
      (** procedure names, parallel to [entries]; ties keep [proc_addrs]
          order *)
  proc_of_pc : int array;
      (** index into [procs] of the procedure with the greatest entry at or
          below the pc; [-1] below the first entry (the startup stub) *)
  metas : Asm.meta array;  (** the published contracts, in [metas] order *)
  meta_of_pc : int array;
      (** index into [metas] at a procedure entry with a contract (the last
          one when several share it), [-1] elsewhere *)
  may_write : int array;
      (** per meta, a bitmask of the registers its activation may write,
          from the call that enters it to the return that pops its frame.
          Reachability runs from the entry over fall-through, [B] and [J]
          targets (into any procedure's body: layout is not trusted) and
          call continuations.  A reached instruction writes its
          destination ([$zero] aside), a [jal] or [jalr] writes [ra]; a
          [jal] to a contract entry adds that meta's set, a [jalr] every
          meta's set (a call that lands elsewhere is a wild-call trap), to
          a fixpoint.  A path ends at [halt], at [jr] (the checker pops
          this frame there, having verified the return target), and at an
          instruction that traps unconditionally: an unlinked ([Jal],
          [Lproc]) or bad-register one, or an out-of-range pc. *)
  cls : int array;  (** the static class of each pc, below [nclasses] *)
  bracket : int array;
      (** for a [Tcallsave] store, the nearest call after it, for a load
          the nearest before it, inside its procedure; [-1] when there is
          none, and at every other pc *)
  ordinal : int array;
      (** for a [Jal_pc] inside a procedure, the number of that
          procedure's direct calls to the same callee before it; [-1] at
          every other pc, the stub's calls included *)
}

val make : Asm.program -> t

(** The classes: [load tag] ([Lw]), [store tag] ([Sw]), [call]
    ([Jal_pc]), [call_indirect] ([Jalr]); every other instruction shares
    one more. *)

val load : Asm.tag -> int
val store : Asm.tag -> int
val call : int
val call_indirect : int
val nclasses : int

val proc_name : t -> int -> string
(** [proc_name v pc] names the procedure with the greatest entry at or
    below [pc]: ["<stub>"] below the first entry, ["<unknown>"] when the
    program publishes none.  Total on every int, so a trap can name any
    pc. *)

val proc_cycles : t -> int array -> (string * int) list
(** [proc_cycles v counts] sums per-pc counts (at least as long as the
    code) by procedure, every procedure in address order, after a
    ["<stub>"] entry when the stub's sum is nonzero; [[]] when the program
    publishes no procedure. *)

val operands_valid : Asm.inst -> bool
(** Whether every register the instruction names lies inside the file. *)
