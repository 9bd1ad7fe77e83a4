(** Live ranges in the style of the paper's priority-based coloring: each
    virtual register owns one live range described by the set of basic
    blocks it is live or referenced in, its frequency-weighted use/def
    counts, and the call sites its range spans.  Frequencies are static
    estimates: a block at loop depth [d] weighs [10^min(d,5)], the classic
    Uopt heuristic (measured profiles can be substituted; see
    {!val:weights_of_profile}). *)

module Bitset = Chow_support.Bitset
module Ir = Chow_ir.Ir
module Loops = Chow_ir.Loops

type call_site = {
  cs_id : int;
  cs_block : Ir.label;
  cs_index : int;  (** index of the call within its block's instructions *)
  cs_target : Ir.call_target;
  cs_args : Ir.operand list;
  cs_ret : Ir.vreg option;
  cs_weight : float;
  cs_live_across : Bitset.t;  (** vregs live through the call *)
}

type range = {
  vreg : Ir.vreg;
  blocks : Bitset.t;  (** blocks where the vreg is live or referenced *)
  weighted_refs : float;  (** frequency-weighted loads+stores saved *)
  span : int;  (** number of blocks in [blocks]; the paper's range size *)
  calls_across : int list;  (** [cs_id]s of call sites the range spans *)
  arg_moves : (int * int) list;
      (** (cs_id, arg position) pairs where this vreg is passed by value *)
}

type t = {
  ranges : range array;  (** indexed by vreg *)
  call_sites : call_site array;
  weights : float array;  (** per-block frequency estimate *)
}

(* 10^d for d = 0..5: exact floats, the same values [10. ** d] yields *)
let depth_weight = [| 1.; 10.; 100.; 1000.; 10000.; 100000. |]

let default_weights (p : Ir.proc) (loops : Loops.t) =
  Array.init (Ir.nblocks p) (fun l ->
      depth_weight.(min (Loops.depth loops l) 5))

(** Substitute measured block frequencies (profile feedback, the paper's
    "future work" §8): callers normalise counts so the entry block is 1. *)
let weights_of_profile counts =
  let entry = max 1. counts.(Ir.entry_label) in
  Array.map (fun c -> c /. entry) counts

let compute ?weights (p : Ir.proc) (loops : Loops.t) (lv : Liveness.t)
    (ig : Interference.t) =
  let nb = Ir.nblocks p in
  let weights =
    match weights with Some w -> w | None -> default_weights p loops
  in
  let live_across = Interference.live_across ig in
  let blocks = Array.init p.nvregs (fun _ -> Bitset.create nb) in
  let refs = Array.make p.nvregs 0. in
  let calls_across = Array.make p.nvregs [] in
  let arg_moves = Array.make p.nvregs [] in
  let call_sites = ref [] in
  let n_sites = ref 0 in
  (* [present] and [touch] are built once per procedure and act on the
     block being scanned, [cur] *)
  let cur = ref 0 in
  let present v = Bitset.set blocks.(v) !cur in
  let touch v =
    let l = !cur in
    Bitset.set blocks.(v) l;
    refs.(v) <- refs.(v) +. weights.(l)
  in
  (* blocks where live-in *)
  for l = 0 to nb - 1 do
    cur := l;
    Bitset.iter present lv.Liveness.live_in.(l);
    Bitset.iter present lv.Liveness.live_out.(l)
  done;
  (* reference counts, presence, and call sites; every reference in a
     block adds the same weight, so the order within a block cannot change
     a sum *)
  for l = 0 to nb - 1 do
    cur := l;
    let w = weights.(l) in
    let b = Ir.block p l in
    List.iteri
      (fun idx inst ->
        Ir.iter_inst_defs touch inst;
        Ir.iter_inst_uses touch inst;
        match inst with
        | Ir.Call { target; args; ret } ->
            let cs_id = !n_sites in
            incr n_sites;
            call_sites :=
              {
                cs_id;
                cs_block = l;
                cs_index = idx;
                cs_target = target;
                cs_args = args;
                cs_ret = ret;
                cs_weight = w;
                cs_live_across = live_across.(cs_id);
              }
              :: !call_sites;
            List.iteri
              (fun pos arg ->
                match arg with
                | Ir.Reg v -> arg_moves.(v) <- (cs_id, pos) :: arg_moves.(v)
                | Ir.Imm _ -> ())
              args
        | Ir.Li _ | Ir.Mov _ | Ir.Neg _ | Ir.Not _ | Ir.Binop _ | Ir.Cmp _
        | Ir.Load _ | Ir.Store _ | Ir.Addr_of_proc _ | Ir.Print _ ->
            ())
      b.insts;
    Ir.iter_term_uses touch b.term
  done;
  let call_sites = Array.of_list (List.rev !call_sites) in
  (* each range's spanned calls, blocks descending and each block's calls
     first to last: the colorer sums its around-call penalties in this
     order, so the order is part of every score *)
  let n = Array.length call_sites in
  let first = ref 0 in
  while !first < n do
    let l = call_sites.(!first).cs_block in
    let stop = ref !first in
    while !stop < n && call_sites.(!stop).cs_block = l do
      incr stop
    done;
    for cs_id = !stop - 1 downto !first do
      Bitset.iter
        (fun v -> calls_across.(v) <- cs_id :: calls_across.(v))
        live_across.(cs_id)
    done;
    first := !stop
  done;
  let ranges =
    Array.init p.nvregs (fun v ->
        {
          vreg = v;
          blocks = blocks.(v);
          weighted_refs = refs.(v);
          span = Bitset.cardinal blocks.(v);
          calls_across = calls_across.(v);
          arg_moves = arg_moves.(v);
        })
  in
  { ranges; call_sites; weights }
