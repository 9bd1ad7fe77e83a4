(** Generic iterative bit-vector data-flow solver: the classic gen/kill
    scheme in both directions with either meet.  Live-variable analysis
    uses it; the tests also use it as the oracle for the shrink-wrap
    equations (3.1)-(3.4), which [Shrinkwrap] solves over register
    masks.

    - forward:  [in(b) = meet over preds p of out(p)],
                [out(b) = gen(b) + (in(b) - kill(b))]
    - backward: [out(b) = meet over succs s of in(s)],
                [in(b) = gen(b) + (out(b) - kill(b))]

    with [boundary] applied at the entry (forward) or at [Ret] exits
    (backward).  For the [Inter] meet interior blocks start at the full set
    (lattice top); for [Union] at the empty set. *)

module Bitset = Chow_support.Bitset

type direction = Forward | Backward
type meet = Union | Inter

type spec = {
  nbits : int;
  direction : direction;
  meet : meet;
  boundary : Bitset.t;  (** value at entry/exit boundary blocks *)
  gen : int -> Bitset.t;
  kill : int -> Bitset.t;
}

type result = {
  live_in : Bitset.t array;  (** value at each block's entry *)
  live_out : Bitset.t array;  (** value at each block's exit *)
}

val solve : Cfg.t -> spec -> result
