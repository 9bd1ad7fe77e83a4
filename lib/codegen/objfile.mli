(** Persistent compilation-unit artifacts ("object files").

    One artifact carries everything the linker needs to place a separately
    compiled unit into a program without re-running the front end or the
    allocator: the emitted pre-link code of every procedure, the
    register-preservation contracts, the §2-§4 register-usage summaries
    (usage mask and parameter-register assignments) of the closed
    procedures, the unit's static-data contribution, and the external
    procedures it references.

    On disk an artifact is a {!Chow_support.Wire} container with magic
    ["PWNO"] around a varint-coded payload of length-prefixed records.
    The container's checks and the bounds-checked reader reject
    truncated, bit-flipped or crafted files ({!Corrupt}) rather than
    mis-link them.  The incremental cache treats {!Corrupt} as a miss
    and recompiles.

    Code is stored post-emission: global addresses are already absolute
    (the unit was laid out at {!field-o_data_base}), while procedure
    references ([Jal]/[Lproc]) and block labels stay symbolic for the
    linker.  An artifact is therefore position-dependent in data and
    position-independent in code; relinking at a different data base
    requires recompilation, which the cache key encodes. *)

module Machine = Chow_machine.Machine
module Usage = Chow_core.Usage

(** Raised by {!read}/{!load} on any malformed input: bad magic, version
    mismatch, wrong length, digest mismatch, or payload decode failure.
    The same exception as {!Chow_support.Wire.Corrupt}. *)
exception Corrupt of string

(** The current format version; bumped on any encoding change so stale
    artifacts are rejected (and, through the cache key, never looked up). *)
val format_version : int

(** One compiled procedure. *)
type proc_art = {
  pa_code : Asm.proc_code;  (** pre-link items: labels + instructions *)
  pa_open : bool;  (** open procedures follow the default convention *)
  pa_preserved : Machine.reg list;
      (** the dynamic contract: registers a call must leave unchanged *)
  pa_usage : Usage.info option;
      (** the published §2-§4 summary — usage mask and parameter
          locations — of a closed procedure; [None] for open ones *)
}

(** One compilation unit's artifact. *)
type t = {
  o_procs : proc_art list;  (** in emission (processing) order *)
  o_data_base : int;  (** data-segment offset the unit was laid out at *)
  o_data_size : int;  (** words of static data the unit contributes *)
  o_data_init : (int * int) list;
      (** non-zero initialisation, at absolute addresses *)
  o_externs : string list;
      (** procedures referenced but not defined in this unit, sorted *)
}

(** [externs_of_procs procs] scans the emitted code for symbolic references
    ([Jal], [Lproc]) to procedures the unit does not define. *)
val externs_of_procs : Asm.proc_code list -> string list

(** [contract_check t] re-derives every procedure's preservation contract
    from its recorded usage mask ({!Usage.preserved_of_mask}; open or
    summary-less procedures default to the callee-saved set) and compares
    it with the recorded contract — the link-time proof that the IPRA mask
    contract survived serialization.  [Error] names the first offending
    procedure. *)
val contract_check : t -> (unit, string) result

(** [write t] serializes to bytes (header + checksummed payload). *)
val write : t -> string

(** [read bytes] deserializes; raises {!Corrupt} on any malformation. *)
val read : string -> t

(** [save ~path t] writes atomically ({!Chow_support.Wire.save}). *)
val save : path:string -> t -> unit

(** [load path] reads and deserializes; raises {!Corrupt} or [Sys_error]. *)
val load : string -> t
