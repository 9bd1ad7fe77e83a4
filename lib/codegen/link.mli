(** Static data layout and program linking. *)

exception Undefined_procedure of string

(** Raised for a malformed link: a procedure defined more than once, a
    label out of its procedure's range or defined twice, a branch to a
    label its procedure does not define, or (from
    [Pipeline.link_units]) a cross-unit reference to a closed
    procedure.  The message names the procedure. *)
exception Error of string

(** [layout ?base prog] assigns every global a base address starting at
    [base] (default 0); returns the address table, the end offset of the
    data segment (so the unit's own contribution is [end - base]), and the
    non-zero initialisation list at absolute addresses.  [base] is how
    separate compilation places each unit's globals after its
    predecessors' without seeing their IR. *)
val layout :
  ?base:int ->
  Chow_ir.Ir.prog ->
  (string, int) Hashtbl.t * int * (int * int) list

(** [link ~metas procs ~data_size ~data_init] concatenates a startup stub
    ([jal main; halt]) with the emitted procedures, resolves block labels
    to absolute addresses, and rewrites [Jal]/[Lproc] to code addresses.
    Raises {!Undefined_procedure} for calls that no unit defines and
    {!Error} for a procedure defined twice or a label that does not
    resolve. *)
val link :
  metas:(string * Asm.meta) list ->
  Asm.proc_code list ->
  data_size:int ->
  data_init:(int * int) list ->
  Asm.program
