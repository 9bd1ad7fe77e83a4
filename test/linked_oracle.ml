(** Oracles for the static view of linked code ({!Chow_codegen.Linked}),
    shared by the simulator suites: the procedure attribution by binary
    search over the sorted entry table, the per-procedure cycle fold over
    entry ranges, and the may-write walk over the decoded int form, as the
    simulator computed them before the view existed.  They share no code
    with the view.  [check name prog] holds the view of [prog], and the
    contracts {!Chow_sim.Decode} checks, to all three. *)

module Asm = Chow_codegen.Asm
module Linked = Chow_codegen.Linked
module Machine = Chow_machine.Machine
module Ir = Chow_ir.Ir
module Decode = Chow_sim.Decode

(* procedure entries sorted by address, as parallel arrays *)
let proc_table (p : Asm.program) =
  let sorted =
    List.sort (fun (_, a) (_, b) -> compare (a : int) b) p.Asm.proc_addrs
  in
  (Array.of_list (List.map snd sorted), Array.of_list (List.map fst sorted))

(* the procedure whose entry is the greatest at or below [pc] *)
let attribute_pc entries names pc =
  let n = Array.length entries in
  if n = 0 then "<unknown>"
  else if pc < entries.(0) then "<stub>"
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if entries.(mid) <= pc then lo := mid else hi := mid - 1
    done;
    names.(!lo)
  end

(* per-pc counts summed over each procedure's entry range, in address
   order, after a "<stub>" entry when the code below the first entry ran *)
let attribute_cycles (p : Asm.program) counts =
  let entries, names = proc_table p in
  let n = Array.length entries in
  if n = 0 then []
  else begin
    let ncode = Array.length counts in
    let sum lo hi =
      let acc = ref 0 in
      for pc = lo to min hi (ncode - 1) do
        acc := !acc + counts.(pc)
      done;
      !acc
    in
    let procs =
      List.init n (fun i ->
          let hi = if i + 1 < n then entries.(i + 1) - 1 else ncode - 1 in
          (names.(i), sum entries.(i) hi))
    in
    let stub = sum 0 (entries.(0) - 1) in
    if stub > 0 then ("<stub>", stub) :: procs else procs
  end

(* ----- the decoded form: four ints per pc, opcode first ----- *)

let k_halt = 0
let k_li = 1
let k_move = 2
let k_neg = 3
let k_not = 4
let k_add = 5
let k_addi = 15
let k_cmp = 25
let k_cmpi = 31
let k_lw = 37
let k_sw = 42
let k_b = 47
let k_j = 53
let k_jal = 54
let k_jalr = 55
let k_jr = 56
let k_print = 57
let k_unlinked = 58
let k_badreg = 59

let binop_code = function
  | Ir.Add -> 0
  | Ir.Sub -> 1
  | Ir.Mul -> 2
  | Ir.Div -> 3
  | Ir.Rem -> 4
  | Ir.And -> 5
  | Ir.Or -> 6
  | Ir.Xor -> 7
  | Ir.Shl -> 8
  | Ir.Shr -> 9

let relop_code = function
  | Ir.Eq -> 0
  | Ir.Ne -> 1
  | Ir.Lt -> 2
  | Ir.Le -> 3
  | Ir.Gt -> 4
  | Ir.Ge -> 5

let tag_code = function
  | Asm.Tdata -> 0
  | Asm.Tscalar -> 1
  | Asm.Tsave -> 2
  | Asm.Tcallsave -> 3
  | Asm.Tstackarg -> 4

let valid r = r >= 0 && r < Machine.nregs

let valid_regs = function
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

(* a write to the zero register goes to a slot past the file *)
let dst r = if r = Machine.zero then Machine.nregs else r

let decode_inst = function
  | Asm.Halt -> (k_halt, 0, 0, 0)
  | Asm.Li (r, imm) -> (k_li, dst r, imm, 0)
  | Asm.Lproc _ | Asm.Jal _ -> (k_unlinked, 0, 0, 0)
  | Asm.Move (d, s) -> (k_move, dst d, s, 0)
  | Asm.Neg (d, s) -> (k_neg, dst d, s, 0)
  | Asm.Not (d, s) -> (k_not, dst d, s, 0)
  | Asm.Binop (op, d, a, b) -> (k_add + binop_code op, dst d, a, b)
  | Asm.Binopi (op, d, a, imm) -> (k_addi + binop_code op, dst d, a, imm)
  | Asm.Cmp (op, d, a, b) -> (k_cmp + relop_code op, dst d, a, b)
  | Asm.Cmpi (op, d, a, imm) -> (k_cmpi + relop_code op, dst d, a, imm)
  | Asm.Lw (d, b, off, tag) -> (k_lw + tag_code tag, dst d, b, off)
  | Asm.Sw (s, b, off, tag) -> (k_sw + tag_code tag, s, b, off)
  | Asm.B (op, a, b, l) -> (k_b + relop_code op, a, b, l)
  | Asm.J l -> (k_j, l, 0, 0)
  | Asm.Jal_pc t -> (k_jal, t, 0, 0)
  | Asm.Jalr r -> (k_jalr, r, 0, 0)
  | Asm.Jr -> (k_jr, 0, 0, 0)
  | Asm.Print r -> (k_print, r, 0, 0)

let decode (p : Asm.program) =
  let code = Array.make (4 * Array.length p.Asm.code) 0 in
  Array.iteri
    (fun i inst ->
      let op, a, b, c =
        if valid_regs inst then decode_inst inst else (k_badreg, 0, 0, 0)
      in
      code.(4 * i) <- op;
      code.((4 * i) + 1) <- a;
      code.((4 * i) + 2) <- b;
      code.((4 * i) + 3) <- c)
    p.Asm.code;
  code

(* [meta_of_pc.(pc)] indexes [p.metas] at an entry with a contract *)
let meta_of_pc (p : Asm.program) =
  let meta_of_pc = Array.make (Array.length p.Asm.code) (-1) in
  List.iteri
    (fun i (pc, _) ->
      if pc >= 0 && pc < Array.length meta_of_pc then meta_of_pc.(pc) <- i)
    p.Asm.metas;
  meta_of_pc

(* For each meta, the registers its activation may write: reachability
   from the entry over fall-through, branch and jump targets and call
   continuations; a path ends at halt, jr, an unlinked or bad-register
   instruction, or an out-of-range pc.  A static jal to an entry adds the
   callee's set, a jalr every set, to a fixpoint. *)
let may_write code meta_entry meta_of_pc =
  let n = Array.length code / 4 in
  let nm = Array.length meta_entry in
  let may = Array.make nm 0 in
  let indirect = Array.make nm false in
  let callees = Array.make nm [||] in
  let seen = Array.make n (-1) in
  let work = Array.make n 0 and found = Array.make n 0 in
  let ra_bit = 1 lsl Machine.ra in
  for m = 0 to nm - 1 do
    let top = ref 0 and nfound = ref 0 and mask = ref 0 in
    let push pc =
      if pc >= 0 && pc < n && seen.(pc) <> m then begin
        seen.(pc) <- m;
        work.(!top) <- pc;
        incr top
      end
    in
    push meta_entry.(m);
    while !top > 0 do
      decr top;
      let pc = work.(!top) in
      let op = code.(4 * pc) and a = code.((4 * pc) + 1) in
      if op >= k_li && op < k_sw && a < Machine.nregs then
        mask := !mask lor (1 lsl a);
      if op = k_halt || op = k_jr || op = k_unlinked || op = k_badreg then ()
      else if op >= k_b && op < k_j then begin
        push (pc + 1);
        push code.((4 * pc) + 3)
      end
      else if op = k_j then push a
      else begin
        if op = k_jalr then begin
          mask := !mask lor ra_bit;
          indirect.(m) <- true
        end
        else if op = k_jal then begin
          mask := !mask lor ra_bit;
          if a >= 0 && a < n && meta_of_pc.(a) >= 0 then begin
            found.(!nfound) <- meta_of_pc.(a);
            incr nfound
          end
        end;
        push (pc + 1)
      end
    done;
    may.(m) <- !mask;
    callees.(m) <- Array.sub found 0 !nfound
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    let any = Array.fold_left ( lor ) 0 may in
    for m = 0 to nm - 1 do
      let v = ref (if indirect.(m) then may.(m) lor any else may.(m)) in
      Array.iter (fun c -> v := !v lor may.(c)) callees.(m);
      if !v <> may.(m) then begin
        may.(m) <- !v;
        changed := true
      end
    done
  done;
  may

(* each contract's preserved registers that may change, in contract
   order, -1 for one outside the file *)
let meta_checked (p : Asm.program) =
  let may =
    may_write (decode p)
      (Array.of_list (List.map fst p.Asm.metas))
      (meta_of_pc p)
  in
  List.mapi
    (fun i (_, (m : Asm.meta)) ->
      Array.of_list
        (List.filter_map
           (fun r ->
             if not (valid r) then Some (-1)
             else if may.(i) land (1 lsl r) <> 0 then Some r
             else None)
           m.Asm.m_preserved))
    p.Asm.metas

(** [check name prog] asserts that the view of [prog] names the procedure
    of every pc, and of a few pcs on each side of the code, as the binary
    search does; that it folds per-pc counts into per-procedure totals as
    the entry-range sums do; and that the registers {!Decode} checks for
    each contract are the old walk's. *)
let check name (prog : Asm.program) =
  let t = Decode.decode prog in
  let v = Decode.linked t in
  let n = Array.length prog.Asm.code in
  let entries, names = proc_table prog in
  let pcs = Array.init (n + 8) (fun i -> i - 4) in
  Alcotest.(check (array string))
    (name ^ ": procedure of each pc")
    (Array.map (attribute_pc entries names) pcs)
    (Array.map (Linked.proc_name v) pcs);
  let counts = Array.init n (fun pc -> 1 + (pc mod 7)) in
  Alcotest.(check (list (pair string int)))
    (name ^ ": cycles by procedure")
    (attribute_cycles prog counts)
    (Linked.proc_cycles v counts);
  Alcotest.(check (list (array int)))
    (name ^ ": checked registers of each contract")
    (meta_checked prog)
    (List.mapi (fun m _ -> Decode.meta_checked t m) prog.Asm.metas)
