(** Generic iterative bit-vector data-flow solver.

    Live-variable analysis is its client (the shrink-wrap equations
    (3.1)-(3.4) are the same scheme over register masks, solved in
    [Shrinkwrap]); both are instances of the classic gen/kill scheme:

    - forward:   [in(b)  = meet over preds p of out(p)],
                 [out(b) = gen(b) + (in(b) - kill(b))]
    - backward:  [out(b) = meet over succs s of in(s)],
                 [in(b)  = gen(b) + (out(b) - kill(b))]

    with the boundary value applied at entry blocks (forward) or exit blocks
    (backward).  For the [`Inter] meet the interior is initialised to the
    full set (the analysis lattice's top); for [`Union] to the empty set. *)

module Bitset = Chow_support.Bitset
module Metrics = Chow_obs.Metrics

(* pops are counted into a local and published once per [solve], so the
   worklist loop itself carries no metrics cost *)
let m_solves = Metrics.counter "dataflow.solves"
let m_pops = Metrics.counter "dataflow.worklist_pops"

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

type result = { live_in : Bitset.t array; live_out : Bitset.t array }

let solve (cfg : Cfg.t) spec =
  let n = cfg.nblocks in
  let mk_full () =
    let s = Bitset.create spec.nbits in
    Bitset.set_all s;
    s
  in
  let init () =
    match spec.meet with
    | Inter -> mk_full ()
    | Union -> Bitset.create spec.nbits
  in
  let inb = Array.init n (fun _ -> init ()) in
  let outb = Array.init n (fun _ -> init ()) in
  (* the confluence reads [values] of [sources]: the predecessors' outs
     (forward) or the successors' ins (backward) *)
  let order, sources, values, conf, result, deps =
    match spec.direction with
    | Forward -> (cfg.rpo, cfg.preds, outb, inb, outb, cfg.succs)
    | Backward -> (cfg.postorder, cfg.succs, inb, outb, inb, cfg.preds)
  in
  let rec meet_rest acc = function
    | [] -> ()
    | j :: rest ->
        (match spec.meet with
        | Union -> Bitset.union_into acc values.(j)
        | Inter -> Bitset.inter_into acc values.(j));
        meet_rest acc rest
  in
  (* boundary blocks: entry (forward) or [Ret] exits (backward).  A backward
     exit has no successors so it would take the boundary anyway; likewise
     the entry has no predecessors only if the CFG has no edge back to it,
     so we special-case entry/exit membership explicitly. *)
  let boundary = Array.make n false in
  (match spec.direction with
  | Forward -> boundary.(Ir.entry_label) <- true
  | Backward -> List.iter (fun l -> boundary.(l) <- true) cfg.exits);
  (* Worklist refinement of the classic round-robin sweep: a FIFO seeded
     with the reachable blocks in propagation order (RPO forward,
     postorder backward), plus a block-indexed dirty bitmask to keep
     entries unique.  A block is reprocessed only when the value it
     consumes — a predecessor's out (forward) or a successor's in
     (backward) — actually changed, so acyclic regions settle in one
     visit and iteration is confined to the loops that need it.  The
     framework is monotone over a finite lattice, so the fixpoint reached
     is identical to the round-robin one.  Unreachable blocks stay at
     their initial value, exactly as the sweep left them. *)
  let reachable = Bitset.create n in
  Array.iter (Bitset.set reachable) order;
  let dirty = Bitset.create n in
  let queue = Queue.create () in
  Array.iter
    (fun l ->
      Bitset.set dirty l;
      Queue.add l queue)
    order;
  let tmp = Bitset.create spec.nbits in
  let pops = ref 0 in
  while not (Queue.is_empty queue) do
    let l = Queue.pop queue in
    incr pops;
    Bitset.clear dirty l;
    (* confluence: entry (forward) and [Ret] exits (backward) keep the
       boundary, as does a block with no sources *)
    let conf_target = conf.(l) in
    (match sources.(l) with
    | first :: rest when not boundary.(l) ->
        Bitset.assign conf_target values.(first);
        meet_rest conf_target rest
    | _ -> Bitset.assign conf_target spec.boundary);
    (* transfer *)
    Bitset.assign tmp conf_target;
    Bitset.diff_into tmp (spec.kill l);
    Bitset.union_into tmp (spec.gen l);
    let out_target = result.(l) in
    if not (Bitset.equal out_target tmp) then begin
      Bitset.assign out_target tmp;
      List.iter
        (fun d ->
          if Bitset.mem reachable d && not (Bitset.mem dirty d) then begin
            Bitset.set dirty d;
            Queue.add d queue
          end)
        deps.(l)
    end
  done;
  Metrics.incr m_solves;
  Metrics.add m_pops !pops;
  { live_in = inb; live_out = outb }
