(** Shrink-wrapping of callee-saved register saves/restores (paper §5).

    Given, per basic block, the set of registers whose values must be
    protected there (the APP attribute: blocks where a live range assigned
    to the register extends, plus call blocks whose callee may clobber it),
    this module decides at which block entries to save each register and at
    which block exits to restore it, so that the save/restore code executes
    only on paths that actually use the register.

    The placement follows the paper's equations:

    - ANTOUT/ANTIN (3.1, 3.2): anticipated uses, backward ∩, false at exits;
    - AVIN/AVOUT (3.3, 3.4): available uses, forward ∩, false at the entry
      (the paper prints "exit" in (3.3) — an obvious typo, availability is a
      forward problem);
    - SAVE (3.5): save where the use is anticipated, not available, and not
      anticipated in any predecessor;
    - RESTORE (3.6): the mirror image at block exits.

    As the paper notes, the literal equations can produce incorrect code on
    some control-flow shapes (its Fig. 2 double save being one); rather than
    split edges, the paper "extends the range of usage of the register by
    propagating the APP attribute to the basic blocks that cause the
    incorrect insertion" and iterates until stable.  We drive that iteration
    with an explicit balance checker: an abstract interpretation over the
    CFG tracks whether the register is currently saved, and each violation
    (double or conflicting save, unprotected use, restore without save,
    unbalanced exit) extends APP into the offending neighbourhood before
    re-solving.  In practice one or two rounds suffice, as the paper
    reports; a register that still cannot be placed after
    [max_iterations] falls back to entry/exit placement, which is always
    correct.

    Loops: APP is first propagated over whole natural-loop bodies, so a
    shrink-wrapped region never lands inside a loop (paper §5, last
    paragraph). *)

module Bitset = Chow_support.Bitset
module Ir = Chow_ir.Ir
module Cfg = Chow_ir.Cfg
module Loops = Chow_ir.Loops
module Machine = Chow_machine.Machine
module Metrics = Chow_obs.Metrics

let m_placements = Metrics.counter "shrinkwrap.placements"
let m_rounds = Metrics.counter "shrinkwrap.rounds"
let m_fallback_regs = Metrics.counter "shrinkwrap.fallback_regs"

type placement = {
  save_at : (Ir.label * Machine.reg) list;  (** save at entry of block *)
  restore_at : (Ir.label * Machine.reg) list;  (** restore at exit of block *)
  entry_save : Machine.reg list;
      (** registers whose save lands at the procedure entry block — §6 uses
          this to decide which saves propagate up the call graph *)
  iterations : int;  (** range-extension rounds performed, for diagnostics *)
}

let max_iterations = 24

(* Every attribute below is one register mask per block: [Machine.nregs]
   fits an OCaml int, so a union is a [lor] and a set difference a
   [land lnot]. *)

let flags cfg ls =
  let f = Array.make cfg.Cfg.nblocks false in
  List.iter (fun l -> f.(l) <- true) ls;
  f

let exit_flags cfg = flags cfg cfg.Cfg.exits
let entry_flags cfg = flags cfg [ Ir.entry_label ]

(* Propagate APP over natural loops: a register used anywhere in a loop is
   treated as used in every block of that loop. *)
let propagate_loops (loops : Loops.t) app =
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun { Loops.body; _ } ->
        let union = Bitset.fold (fun l m -> m lor app.(l)) body 0 in
        Bitset.iter
          (fun l ->
            if union land lnot app.(l) <> 0 then begin
              app.(l) <- app.(l) lor union;
              changed := true
            end)
          body)
      loops.Loops.loops
  done

type flow = { ins : int array; outs : int array }

(* The two ∩ problems share one shape: [conf.(l)] is the meet over
   [sources l] of [value.(j)] (empty at a boundary block or one without
   sources) and [value.(l) = app.(l) ∪ conf.(l)].  Every block starts at
   all-ones, the lattice top, and the round-robin sweep over [order]
   (the reachable blocks) descends to the greatest fixpoint: the one the
   generic worklist solver reaches from the same top.  Unreachable blocks
   keep the top, as they do there. *)
let solve_inter order sources boundary app =
  let n = Array.length app in
  let top = (1 lsl Machine.nregs) - 1 in
  let conf = Array.make n top in
  let value = Array.make n top in
  let rec meet acc = function
    | [] -> acc
    | j :: rest -> meet (acc land value.(j)) rest
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for k = 0 to Array.length order - 1 do
      let l = order.(k) in
      let c =
        if boundary.(l) then 0
        else
          match sources.(l) with
          | [] -> 0
          | j :: rest -> meet value.(j) rest
      in
      conf.(l) <- c;
      let v = app.(l) lor c in
      if v <> value.(l) then begin
        value.(l) <- v;
        changed := true
      end
    done
  done;
  (conf, value)

(* ANTOUT/ANTIN (3.1, 3.2): backward, false below the exits *)
let ant cfg is_exit app =
  let outs, ins = solve_inter cfg.Cfg.postorder cfg.Cfg.succs is_exit app in
  { ins; outs }

(* AVIN/AVOUT (3.3, 3.4): forward, false at the entry *)
let av cfg is_entry app =
  let ins, outs = solve_inter cfg.Cfg.rpo cfg.Cfg.preds is_entry app in
  { ins; outs }

let solve_ant cfg app = ant cfg (exit_flags cfg) app
let solve_av cfg app = av cfg (entry_flags cfg) app

let union_over sets ls =
  List.fold_left (fun m j -> m lor sets.(j)) 0 ls

(* SAVE_i = ANTIN_i * (not AVIN_i) * prod_{j in pred(i)} (not ANTIN_j)  (3.5) *)
let compute_save cfg ~antin ~avin =
  Array.init cfg.Cfg.nblocks (fun l ->
      antin.(l) land lnot avin.(l)
      land lnot (union_over antin cfg.Cfg.preds.(l)))

(* RESTORE_i = AVOUT_i * (not ANTOUT_i) * prod_{j in succ(i)} (not AVOUT_j) (3.6) *)
let compute_restore cfg ~avout ~antout =
  Array.init cfg.Cfg.nblocks (fun l ->
      avout.(l) land lnot antout.(l)
      land lnot (union_over avout cfg.Cfg.succs.(l)))

type violation =
  | Conflicting_paths of Ir.label
      (** joins where one incoming path has an active save and another not *)
  | Double_save of Ir.label
  | Unprotected_use of Ir.label
  | Restore_unsaved of Ir.label
  | Exit_unbalanced of Ir.label

(** Abstract interpretation of a single register's placement.  States:
    [-1] unknown, [0] unsaved, [1] saved, [2] conflicting. *)
let balance cfg is_exit ~app ~save ~restore r =
  let n = cfg.Cfg.nblocks in
  let bit = 1 lsl r in
  let has arr l = arr.(l) land bit <> 0 in
  let transfer l s =
    if s < 0 || s = 2 then s
    else
      let s = if has save l then 1 else s in
      let s = if has restore l then 0 else s in
      s
  in
  let state_in = Array.make n (-1) in
  let meet a b =
    if a = -1 then b else if b = -1 then a else if a = b then a else 2
  in
  let rec meet_preds acc = function
    | [] -> acc
    | j :: rest -> meet_preds (meet acc (transfer j state_in.(j))) rest
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun l ->
        let s =
          if l = Ir.entry_label then 0
          else meet_preds (-1) cfg.Cfg.preds.(l)
        in
        if s <> state_in.(l) then begin
          state_in.(l) <- s;
          changed := true
        end)
      cfg.Cfg.rpo
  done;
  let violations = ref [] in
  let add v = violations := v :: !violations in
  Array.iter
    (fun l ->
      let s = state_in.(l) in
      if s >= 0 then begin
        if s = 2 then add (Conflicting_paths l);
        let s = if has save l then (if s = 1 then (add (Double_save l); 1) else 1) else s in
        if has app l && s <> 1 && s >= 0 then add (Unprotected_use l);
        let s =
          if has restore l then
            if s = 1 then 0 else (add (Restore_unsaved l); 0)
          else s
        in
        if is_exit.(l) && s = 1 then add (Exit_unbalanced l)
      end)
    cfg.Cfg.rpo;
  !violations

let check_balance cfg = balance cfg (exit_flags cfg)

(* Range extension: where to grow APP for register [r] given a violation. *)
let extend_for_violation cfg app r =
  let grow l = app.(l) <- app.(l) lor (1 lsl r) in
  function
  | Conflicting_paths l | Double_save l | Unprotected_use l ->
      List.iter grow (Cfg.preds cfg l)
  | Restore_unsaved l -> List.iter grow (Cfg.succs cfg l)
  | Exit_unbalanced l -> grow l

(** Entry/exit placement: the ordinary convention, used when shrink-wrap is
    disabled and as the sound fallback. *)
let entry_exit_placement cfg regs =
  let save_at = List.map (fun r -> (Ir.entry_label, r)) regs in
  let restore_at =
    List.concat_map (fun r -> List.map (fun l -> (l, r)) cfg.Cfg.exits) regs
  in
  { save_at; restore_at; entry_save = regs; iterations = 0 }

(** [place cfg loops ~app candidates] shrink-wraps the registers in
    [candidates] given their per-block protection masks [app] (modified
    in place by loop propagation and range extension). *)
let place cfg (loops : Loops.t) ~(app : int array) candidates =
  let is_exit = exit_flags cfg and is_entry = entry_flags cfg in
  let remaining = ref candidates in
  let placed_save = ref [] in
  let placed_restore = ref [] in
  let entry_save = ref [] in
  let rounds = ref 0 in
  let finished = ref (!remaining = []) in
  while (not !finished) && !rounds < max_iterations do
    incr rounds;
    propagate_loops loops app;
    let ant = ant cfg is_exit app in
    let av = av cfg is_entry app in
    let save = compute_save cfg ~antin:ant.ins ~avin:av.ins in
    let restore = compute_restore cfg ~avout:av.outs ~antout:ant.outs in
    let bad, good =
      List.partition
        (fun r ->
          match balance cfg is_exit ~app ~save ~restore r with
          | [] -> false
          | violations ->
              List.iter (extend_for_violation cfg app r) violations;
              true)
        !remaining
    in
    (* registers whose placement is already balanced are final: APP only
       grows for the bad ones, and each register's bits are independent *)
    List.iter
      (fun r ->
        let bit = 1 lsl r in
        for l = 0 to cfg.Cfg.nblocks - 1 do
          if save.(l) land bit <> 0 then placed_save := (l, r) :: !placed_save;
          if restore.(l) land bit <> 0 then
            placed_restore := (l, r) :: !placed_restore
        done;
        if save.(Ir.entry_label) land bit <> 0 then
          entry_save := r :: !entry_save)
      good;
    remaining := bad;
    if !remaining = [] then finished := true
  done;
  Metrics.incr m_placements;
  Metrics.add m_rounds !rounds;
  Metrics.add m_fallback_regs (List.length !remaining);
  (* sound fallback for anything still unbalanced *)
  let fallback = entry_exit_placement cfg !remaining in
  {
    save_at = fallback.save_at @ !placed_save;
    restore_at = fallback.restore_at @ !placed_restore;
    entry_save = fallback.entry_save @ !entry_save;
    iterations = !rounds;
  }

(** [compute cfg loops ~app candidates] is {!place} over APP given as
    register bitsets, which it reads and does not modify. *)
let compute cfg loops ~(app : Bitset.t array) candidates =
  let app =
    Array.map (fun s -> Machine.mask_of_list (Bitset.elements s)) app
  in
  place cfg loops ~app candidates
