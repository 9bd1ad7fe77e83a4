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

let block_gen_kill (p : Ir.proc) l =
  let gen = Bitset.create p.nvregs in
  let kill = Bitset.create p.nvregs in
  let b = Ir.block p l in
  let use v = if not (Bitset.mem kill v) then Bitset.set gen v in
  let def v = Bitset.set kill v in
  List.iter
    (fun i ->
      Ir.iter_inst_uses use i;
      Ir.iter_inst_defs def i)
    b.insts;
  Ir.iter_term_uses use b.term;
  (gen, kill)

let compute (p : Ir.proc) (cfg : Cfg.t) =
  let n = Ir.nblocks p in
  let gens = Array.init n (fun l -> block_gen_kill p l) in
  let spec =
    {
      Dataflow.nbits = p.nvregs;
      direction = Dataflow.Backward;
      meet = Dataflow.Union;
      boundary = Bitset.create p.nvregs;
      gen = (fun l -> fst gens.(l));
      kill = (fun l -> snd gens.(l));
    }
  in
  let r = Dataflow.solve cfg spec in
  {
    live_in = r.Dataflow.live_in;
    live_out = r.Dataflow.live_out;
    upward_exposed = Array.map fst gens;
    defs = Array.map snd gens;
  }
