(** Live-variable analysis over virtual registers.

    Block-level live-in/out sets come from the generic bit-vector solver;
    {!Interference.build} walks each block backwards from [live_out] to
    find the per-instruction interferences that block-granularity sets
    would merge. *)

module Bitset = Chow_support.Bitset
module Ir = Chow_ir.Ir
module Cfg = Chow_ir.Cfg
module Dataflow = Chow_ir.Dataflow

type t = {
  live_in : Bitset.t array;  (** per block *)
  live_out : Bitset.t array;
  upward_exposed : Bitset.t array;  (** gen: used before any def in block *)
  defs : Bitset.t array;  (** kill: defined in block *)
}

let compute (p : Ir.proc) (cfg : Cfg.t) =
  let n = Ir.nblocks p in
  let gen = Array.init n (fun _ -> Bitset.create p.nvregs) in
  let kill = Array.init n (fun _ -> Bitset.create p.nvregs) in
  (* one [use]/[def] pair per procedure, over the block being scanned *)
  let cur = ref 0 in
  let use v = if not (Bitset.mem kill.(!cur) v) then Bitset.set gen.(!cur) v in
  let def v = Bitset.set kill.(!cur) v in
  let scan i =
    Ir.iter_inst_uses use i;
    Ir.iter_inst_defs def i
  in
  for l = 0 to n - 1 do
    cur := l;
    let b = Ir.block p l in
    List.iter scan b.insts;
    Ir.iter_term_uses use b.term
  done;
  let spec =
    {
      Dataflow.nbits = p.nvregs;
      direction = Dataflow.Backward;
      meet = Dataflow.Union;
      boundary = Bitset.create p.nvregs;
      gen = Array.get gen;
      kill = Array.get kill;
    }
  in
  let r = Dataflow.solve cfg spec in
  {
    live_in = r.Dataflow.live_in;
    live_out = r.Dataflow.live_out;
    upward_exposed = gen;
    defs = kill;
  }
