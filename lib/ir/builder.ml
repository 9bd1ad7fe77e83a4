(** Mutable construction of {!Ir.proc} values.

    The front-end and the tests build procedures through this interface:
    allocate virtual registers and blocks, emit instructions into a current
    block, seal blocks with terminators, then [finish].  [finish] prunes
    blocks unreachable from the entry and renumbers labels densely so that
    every later analysis can assume a compact, entry-reachable CFG. *)

type t = {
  name : string;
  exported : bool;
  mutable params : Ir.vreg list;
  mutable nvregs : int;
  mutable kinds : Ir.vreg_kind list;  (** reversed *)
  mutable blocks : pending array;
  mutable nblocks : int;
  mutable current : int;
}

and pending = {
  mutable rev_insts : Ir.inst list;
  mutable pterm : Ir.terminator option;
}

let fresh_pending () = { rev_insts = []; pterm = None }

let create ?(exported = false) name =
  let b = Array.make 8 (fresh_pending ()) in
  b.(0) <- fresh_pending ();
  {
    name;
    exported;
    params = [];
    nvregs = 0;
    kinds = [];
    blocks = b;
    nblocks = 1;
    current = 0;
  }

let new_vreg ?(kind = Ir.Vtemp) t =
  let v = t.nvregs in
  t.nvregs <- v + 1;
  t.kinds <- kind :: t.kinds;
  v

let add_param t name =
  let v = new_vreg ~kind:(Ir.Vparam (name, List.length t.params)) t in
  t.params <- t.params @ [ v ];
  v

let new_block t =
  if t.nblocks = Array.length t.blocks then begin
    let bigger = Array.make (2 * t.nblocks) (fresh_pending ()) in
    Array.blit t.blocks 0 bigger 0 t.nblocks;
    t.blocks <- bigger
  end;
  let l = t.nblocks in
  t.blocks.(l) <- fresh_pending ();
  t.nblocks <- l + 1;
  l

let switch_to t l =
  assert (l >= 0 && l < t.nblocks);
  t.current <- l

let current_label t = t.current

let emit t inst =
  let b = t.blocks.(t.current) in
  match b.pterm with
  | None -> b.rev_insts <- inst :: b.rev_insts
  | Some _ ->
      (* emitting into a sealed block means the code is unreachable (e.g.
         a statement after [return]); drop it. *)
      ()

let terminate t term =
  let b = t.blocks.(t.current) in
  match b.pterm with None -> b.pterm <- Some term | Some _ -> ()

(** Depth-first sweep from the entry; returns old-label -> new-label (or -1)
    and the count of reachable blocks. *)
let reachable_renaming t =
  let rename = Array.make t.nblocks (-1) in
  let next = ref 0 in
  let rec visit l =
    if rename.(l) < 0 then begin
      rename.(l) <- !next;
      incr next;
      match (t.blocks.(l)).pterm with
      | Some term -> List.iter visit (Ir.successors term)
      | None -> ()
    end
  in
  visit 0;
  (rename, !next)

let rename_term rename = function
  | Ir.Jump l -> Ir.Jump rename.(l)
  | Ir.Cbranch (op, a, b, l1, l2) ->
      Ir.Cbranch (op, a, b, rename.(l1), rename.(l2))
  | Ir.Ret o -> Ir.Ret o

let finish t : Ir.proc =
  (* any block left unterminated falls through to an implicit [ret] *)
  for l = 0 to t.nblocks - 1 do
    let b = t.blocks.(l) in
    if b.pterm = None then b.pterm <- Some (Ir.Ret None)
  done;
  let rename, nreach = reachable_renaming t in
  let blocks =
    Array.init nreach (fun _ ->
        { Ir.id = 0; insts = []; term = Ir.Ret None })
  in
  for l = 0 to t.nblocks - 1 do
    let nl = rename.(l) in
    if nl >= 0 then begin
      let b = t.blocks.(l) in
      let term =
        match b.pterm with Some term -> term | None -> assert false
      in
      blocks.(nl) <-
        {
          Ir.id = nl;
          insts = List.rev b.rev_insts;
          term = rename_term rename term;
        }
    end
  done;
  {
    Ir.pname = t.name;
    params = t.params;
    blocks;
    nvregs = t.nvregs;
    vreg_kinds = Array.of_list (List.rev t.kinds);
    exported = t.exported;
  }
