(** Dense, mutable bitsets over the integers [0, capacity).

    The allocator's per-procedure sets (liveness over vregs, a range's
    blocks, the vregs live across a call site) are small: a procedure has
    a few dozen vregs and blocks, so most sets fit one or two 63-bit
    words.  Those are allocated inline on the minor heap, and every
    whole-set operation is a plain loop, so no operation on a small set
    makes a C call.  (Register sets are plain [int] masks, see
    [Machine.mask_of_list].)  All binary operations require the two
    operands to have the same capacity; this is asserted. *)

type t

(** [create n] is a bitset of capacity [n] with all bits clear. *)
val create : int -> t

val copy : t -> t

(** [set s i] sets bit [i].  Raises [Invalid_argument] when out of range. *)
val set : t -> int -> unit

(** [clear s i] clears bit [i]. *)
val clear : t -> int -> unit

(** [mem s i] is [true] iff bit [i] is set. *)
val mem : t -> int -> bool

(** [is_empty s] is [true] iff no bit is set. *)
val is_empty : t -> bool

(** [equal a b] is [true] iff [a] and [b] contain the same bits. *)
val equal : t -> t -> bool

(** [cardinal s] is the number of set bits. *)
val cardinal : t -> int

(** In-place operations: the first argument receives the result. *)

val union_into : t -> t -> unit
val inter_into : t -> t -> unit
val diff_into : t -> t -> unit

(** [diff a b] is a fresh set holding the bits of [a] not in [b]. *)
val diff : t -> t -> t

(** [assign dst src] overwrites [dst] with the contents of [src]. *)
val assign : t -> t -> unit

(** [clear_all s] clears every bit. *)
val clear_all : t -> unit

(** [set_all s] sets every bit in [0, length s). *)
val set_all : t -> unit

(** [subset a b] is [true] iff every bit of [a] is set in [b]. *)
val subset : t -> t -> bool

(** [iter f s] applies [f] to each set bit in increasing order. *)
val iter : (int -> unit) -> t -> unit

(** [fold f s init] folds over set bits in increasing order. *)
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

(** [elements s] lists the set bits in increasing order. *)
val elements : t -> int list

(** [of_list n xs] is the capacity-[n] bitset containing exactly [xs]. *)
val of_list : int -> int list -> t
