(** Interference graph over virtual registers, dense bitset adjacency,
    built by the one backward walk of each block that also yields every
    call's live-across set. *)

module Bitset = Chow_support.Bitset
module Ir = Chow_ir.Ir

type t = {
  adj : Bitset.t array;
  live_across : Bitset.t array;  (** per call, in forward call order *)
}

(* Precise interference: at each definition point the defined vreg
   conflicts with every vreg live after the instruction.  For a [Mov] the
   source is exempted (the classic copy exemption), which lets the colorer
   give both sides one register.  All parameters live at entry interfere
   pairwise, since the call sequence defines them simultaneously.

   Each definition ORs the live set into its own row; the rows are made
   symmetric, and self-edges dropped, once at the end. *)
let build (p : Ir.proc) (lv : Liveness.t) =
  let n = p.nvregs in
  let adj = Array.init n (fun _ -> Bitset.create n) in
  let live = Bitset.create n in
  let set_live v = Bitset.set live v in
  let clear_live v = Bitset.clear live v in
  let define ~exempt d =
    let row = adj.(d) in
    (* the exempt source keeps an edge some other definition gave it *)
    let keep = exempt < 0 || Bitset.mem row exempt in
    Bitset.union_into row live;
    if not keep then Bitset.clear row exempt
  in
  let define_any d = define ~exempt:(-1) d in
  (* calls of the current block, forward; of earlier blocks, reversed *)
  let block_calls = ref [] and rev_calls = ref [] in
  let step inst =
    (match inst with
    | Ir.Mov (d, s) -> define ~exempt:s d
    | Ir.Call { ret; _ } ->
        let across = Bitset.copy live in
        Option.iter (fun d -> define_any d; Bitset.clear across d) ret;
        block_calls := across :: !block_calls
    | Ir.Li _ | Ir.Neg _ | Ir.Not _ | Ir.Binop _ | Ir.Cmp _ | Ir.Load _
    | Ir.Addr_of_proc _ | Ir.Store _ | Ir.Print _ ->
        Ir.iter_inst_defs define_any inst);
    Ir.iter_inst_defs clear_live inst;
    Ir.iter_inst_uses set_live inst
  in
  let rec walk_back = function
    | [] -> ()
    | inst :: rest ->
        walk_back rest;
        step inst
  in
  for l = 0 to Ir.nblocks p - 1 do
    let b = Ir.block p l in
    Bitset.assign live lv.Liveness.live_out.(l);
    Ir.iter_term_uses set_live b.Ir.term;
    walk_back b.Ir.insts;
    rev_calls := List.rev_append !block_calls !rev_calls;
    block_calls := []
  done;
  let entry_live = lv.Liveness.live_in.(Ir.entry_label) in
  List.iter
    (fun pa ->
      if Bitset.mem entry_live pa then Bitset.union_into adj.(pa) entry_live)
    p.params;
  Array.iteri (fun v row -> Bitset.clear row v) adj;
  Array.iteri
    (fun v row -> Bitset.iter (fun u -> Bitset.set adj.(u) v) row)
    adj;
  { adj; live_across = Array.of_list (List.rev !rev_calls) }

let interfere t a b = Bitset.mem t.adj.(a) b
let neighbors t v = t.adj.(v)
let degree t v = Bitset.cardinal t.adj.(v)
let live_across t = t.live_across
