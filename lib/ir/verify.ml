(** Structural sanity checks on IR procedures and programs.  Run on every
    compile, not only in tests: [Lower.lower_program] checks each unit it
    lowers and [Split.apply] each procedure it splits.  Raises
    [Ill_formed] with a message naming the offending procedure. *)

exception Ill_formed of string

let fail p fmt =
  Format.kasprintf (fun msg -> raise (Ill_formed (p.Ir.pname ^ ": " ^ msg))) fmt

let check_proc (p : Ir.proc) =
  let n = Ir.nblocks p in
  if n = 0 then fail p "no blocks";
  let check_vreg v =
    if v < 0 || v >= p.nvregs then fail p "vreg %%%d out of range" v
  in
  let check_label l =
    if l < 0 || l >= n then fail p "label L%d out of range" l
  in
  List.iter check_vreg p.params;
  let sorted = List.sort_uniq Int.compare p.params in
  if List.length sorted <> List.length p.params then
    fail p "duplicate parameter vregs";
  if Array.length p.vreg_kinds <> p.nvregs then
    fail p "vreg_kinds length %d <> nvregs %d"
      (Array.length p.vreg_kinds) p.nvregs;
  Array.iteri
    (fun l b ->
      if b.Ir.id <> l then fail p "block at index %d has id %d" l b.Ir.id;
      List.iter
        (fun i ->
          Ir.iter_inst_defs check_vreg i;
          Ir.iter_inst_uses check_vreg i)
        b.Ir.insts;
      Ir.iter_term_uses check_vreg b.Ir.term;
      List.iter check_label (Ir.successors b.Ir.term))
    p.blocks

let check_prog (prog : Ir.prog) =
  let names = List.map (fun p -> p.Ir.pname) prog.procs in
  let dups =
    List.filter
      (fun nm -> List.length (List.filter (String.equal nm) names) > 1)
      names
  in
  (match dups with
  | d :: _ -> raise (Ill_formed ("duplicate procedure " ^ d))
  | [] -> ());
  let known nm =
    List.exists (String.equal nm) names
    || List.exists (String.equal nm) prog.externs
  in
  List.iter
    (fun p ->
      check_proc p;
      List.iter
        (fun callee ->
          if not (known callee) then
            fail p "call to undefined procedure %s" callee)
        (Ir.direct_callees p))
    prog.procs;
  List.iter
    (fun taken ->
      if not (known taken) then
        raise (Ill_formed ("address taken of undefined procedure " ^ taken)))
    (Ir.address_taken prog)
