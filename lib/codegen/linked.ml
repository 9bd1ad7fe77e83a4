(** See linked.mli.  Every table is one pass over the code, except
    [may_write], a worklist walk per contract and then a fixpoint over the
    contracts' call edges. *)

module Machine = Chow_machine.Machine

type t = {
  prog : Asm.program;
  entries : int array;
  procs : string array;
  proc_of_pc : int array;
  metas : Asm.meta array;
  meta_of_pc : int array;
  may_write : int array;
  cls : int array;
  bracket : int array;
  ordinal : int array;
}

let load tag = Asm.tag_index tag
let store tag = 5 + Asm.tag_index tag
let call = 10
let call_indirect = 11
let other = 12
let nclasses = 13

let class_of = function
  | Asm.Lw (_, _, _, tag) -> load tag
  | Asm.Sw (_, _, _, tag) -> store tag
  | Asm.Jal_pc _ -> call
  | Asm.Jalr _ -> call_indirect
  | _ -> other

let valid r = r >= 0 && r < Machine.nregs

let operands_valid = function
  | Asm.Halt | Asm.Lproc _ | Asm.Jal _ | Asm.J _ | Asm.Jal_pc _ | Asm.Jr ->
      true
  | Asm.Li (r, _) | Asm.Jalr r | Asm.Print r -> valid r
  | Asm.Move (d, s)
  | Asm.Neg (d, s)
  | Asm.Not (d, s)
  | Asm.Binopi (_, d, s, _)
  | Asm.Cmpi (_, d, s, _)
  | Asm.Lw (d, s, _, _)
  | Asm.Sw (d, s, _, _)
  | Asm.B (_, d, s, _) ->
      valid d && valid s
  | Asm.Binop (_, d, a, b) | Asm.Cmp (_, d, a, b) ->
      valid d && valid a && valid b

(* the greatest index of [entries] at or below [pc], or -1; a pc off the
   code, which only a trap names, is searched for *)
let index entries proc_of_pc pc =
  if pc >= 0 && pc < Array.length proc_of_pc then proc_of_pc.(pc)
  else begin
    let i = ref (-1) in
    Array.iteri (fun k e -> if e <= pc then i := k) entries;
    !i
  end

let proc_name v pc =
  let i = index v.entries v.proc_of_pc pc in
  if i >= 0 then v.procs.(i)
  else if Array.length v.procs = 0 then "<unknown>"
  else "<stub>"

(* Each pc is pushed at most once per meta, so the worklist fits in one
   array of the code's size. *)
let may_write code meta_entry meta_of_pc =
  let n = Array.length code in
  let nm = Array.length meta_entry in
  let may = Array.make nm 0 in
  let indirect = Array.make nm false in
  let callees = Array.make nm [] in
  let seen = Array.make n (-1) and work = Array.make n 0 in
  Array.iteri
    (fun m entry ->
      let top = ref 0 and mask = ref 0 in
      let write r = if r <> Machine.zero then mask := !mask lor (1 lsl r) in
      let push pc =
        if pc >= 0 && pc < n && seen.(pc) <> m then begin
          seen.(pc) <- m;
          work.(!top) <- pc;
          incr top
        end
      in
      push entry;
      while !top > 0 do
        decr top;
        let pc = work.(!top) in
        let inst = code.(pc) in
        if operands_valid inst then begin
          match inst with
          | Asm.Halt | Asm.Jr | Asm.Jal _ | Asm.Lproc _ -> ()
          | Asm.B (_, _, _, l) ->
              push (pc + 1);
              push l
          | Asm.J l -> push l
          | Asm.Jalr _ ->
              write Machine.ra;
              indirect.(m) <- true;
              push (pc + 1)
          | Asm.Jal_pc a ->
              write Machine.ra;
              if a >= 0 && a < n && meta_of_pc.(a) >= 0 then
                callees.(m) <- meta_of_pc.(a) :: callees.(m);
              push (pc + 1)
          | Asm.Li (d, _)
          | Asm.Move (d, _)
          | Asm.Neg (d, _)
          | Asm.Not (d, _)
          | Asm.Binop (_, d, _, _)
          | Asm.Binopi (_, d, _, _)
          | Asm.Cmp (_, d, _, _)
          | Asm.Cmpi (_, d, _, _)
          | Asm.Lw (d, _, _, _) ->
              write d;
              push (pc + 1)
          | Asm.Sw _ | Asm.Print _ -> push (pc + 1)
        end
      done;
      may.(m) <- !mask)
    meta_entry;
  let changed = ref true in
  while !changed do
    changed := false;
    let any = Array.fold_left ( lor ) 0 may in
    for m = 0 to nm - 1 do
      let v = ref (if indirect.(m) then may.(m) lor any else may.(m)) in
      List.iter (fun c -> v := !v lor may.(c)) callees.(m);
      if !v <> may.(m) then begin
        may.(m) <- !v;
        changed := true
      end
    done
  done;
  may

let make (prog : Asm.program) : t =
  let code = prog.Asm.code in
  let n = Array.length code in
  let sorted =
    List.stable_sort
      (fun (_, a) (_, b) -> compare (a : int) b)
      prog.Asm.proc_addrs
  in
  let entries = Array.of_list (List.map snd sorted) in
  let nprocs = Array.length entries in
  let proc_of_pc = Array.make n (-1) in
  let i = ref (-1) in
  for pc = 0 to n - 1 do
    while !i + 1 < nprocs && entries.(!i + 1) <= pc do
      incr i
    done;
    proc_of_pc.(pc) <- !i
  done;
  let meta_of_pc = Array.make n (-1) in
  List.iteri
    (fun m (pc, _) -> if pc >= 0 && pc < n then meta_of_pc.(pc) <- m)
    prog.Asm.metas;
  let cls = Array.map class_of code in
  let call_at pc = cls.(pc) = call || cls.(pc) = call_indirect in
  let bracket = Array.make n (-1) and ordinal = Array.make n (-1) in
  (* Emission places around-call saves right before their call and the
     restores right after it, with no other call between, so a restore
     brackets the nearest call before it in its procedure, and a save (in
     the loop after this one) the nearest call after it.  A procedure's
     calls to one callee are numbered in pc order: the emitter lays blocks
     out in label order, so the same ordinal resolves the same site in the
     caller's IR. *)
  let last = ref (-1) and calls = Hashtbl.create 64 in
  for pc = 0 to n - 1 do
    let p = proc_of_pc.(pc) in
    if pc > 0 && p <> proc_of_pc.(pc - 1) then last := -1;
    if cls.(pc) = load Asm.Tcallsave then bracket.(pc) <- !last;
    if call_at pc then last := pc;
    match code.(pc) with
    | Asm.Jal_pc target when p >= 0 ->
        let key = (p, index entries proc_of_pc target) in
        let o = Option.value ~default:0 (Hashtbl.find_opt calls key) in
        Hashtbl.replace calls key (o + 1);
        ordinal.(pc) <- o
    | _ -> ()
  done;
  let last = ref (-1) in
  for pc = n - 1 downto 0 do
    if pc + 1 < n && proc_of_pc.(pc) <> proc_of_pc.(pc + 1) then last := -1;
    if cls.(pc) = store Asm.Tcallsave then bracket.(pc) <- !last;
    if call_at pc then last := pc
  done;
  {
    prog;
    entries;
    procs = Array.of_list (List.map fst sorted);
    proc_of_pc;
    metas = Array.of_list (List.map snd prog.Asm.metas);
    meta_of_pc;
    may_write =
      may_write code (Array.of_list (List.map fst prog.Asm.metas)) meta_of_pc;
    cls;
    bracket;
    ordinal;
  }

let proc_cycles v counts =
  let nprocs = Array.length v.procs in
  if nprocs = 0 then []
  else begin
    (* slot 0 is the stub's *)
    let sums = Array.make (nprocs + 1) 0 in
    Array.iteri
      (fun pc i -> sums.(i + 1) <- sums.(i + 1) + counts.(pc))
      v.proc_of_pc;
    let procs = List.init nprocs (fun i -> (v.procs.(i), sums.(i + 1))) in
    if sums.(0) > 0 then ("<stub>", sums.(0)) :: procs else procs
  end
