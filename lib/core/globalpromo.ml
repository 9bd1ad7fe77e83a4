(** Promotion of global scalars to registers within procedures (paper §1:
    "we made no attempt to allocate global variables to the same registers
    throughout the entire program ... but we do allocate them to registers
    within procedures in which they appear").

    A global scalar [g] is promoted in procedure [p] when [p] accesses [g]
    and no call that [p] makes can touch [g].  "Can touch" is a bottom-up
    summary over the call graph, computed SCC by SCC exactly like the
    register-usage masks: a procedure touches the globals it loads or
    stores plus everything its callees touch, and an indirect or external
    call is assumed to touch every global.  Recursive procedures therefore
    disqualify themselves automatically (they call something that touches
    whatever they touch).

    The transformation gives [g] a virtual register: one load at the entry,
    a write-back before every return when [p] writes [g], and register
    moves in place of the loads/stores in between.  The allocator then
    treats it like any local — including spilling it back to memory when
    registers are short, which restores exactly the original code. *)

module Ir = Chow_ir.Ir
module Cfg = Chow_ir.Cfg
module Dom = Chow_ir.Dom
module Loops = Chow_ir.Loops

module StringSet = Set.Make (String)
module StringMap = Map.Make (String)

(* globals accessed anywhere with a non-scalar addressing mode are not
   promotable (cannot happen for front-end output, where only scalars are
   addressed by [Global_word], but hand-built IR may differ) *)
let scalar_only_globals (prog : Ir.prog) =
  let scalars =
    List.filter_map
      (function
        | g, Ir.Gscalar _ -> Some g
        | _, Ir.Garray _ -> None)
      prog.Ir.globals
    |> StringSet.of_list
  in
  let bad = ref StringSet.empty in
  let check_mem = function
    | Ir.Global_word (g, k) -> if k <> 0 then bad := StringSet.add g !bad
    | Ir.Global_index (g, _) -> bad := StringSet.add g !bad
  in
  List.iter
    (fun p ->
      Array.iter
        (fun b ->
          List.iter
            (fun i ->
              match i with
              | Ir.Load (_, m) -> check_mem m
              | Ir.Store (m, _) -> check_mem m
              | _ -> ())
            b.Ir.insts)
        p.Ir.blocks)
    prog.Ir.procs;
  StringSet.diff scalars !bad

(* globals directly loaded/stored by a procedure, and whether any write *)
let direct_touches (p : Ir.proc) =
  let touched = ref StringSet.empty in
  let written = ref StringSet.empty in
  Array.iter
    (fun b ->
      List.iter
        (fun i ->
          match i with
          | Ir.Load (_, Ir.Global_word (g, _)) ->
              touched := StringSet.add g !touched
          | Ir.Store (Ir.Global_word (g, _), _) ->
              touched := StringSet.add g !touched;
              written := StringSet.add g !written
          | Ir.Load (_, Ir.Global_index (g, _)) ->
              touched := StringSet.add g !touched
          | Ir.Store (Ir.Global_index (g, _), _) ->
              touched := StringSet.add g !touched;
              written := StringSet.add g !written
          | _ -> ())
        b.Ir.insts)
    p.Ir.blocks;
  (!touched, !written)

type summary = Touches of StringSet.t | Touches_everything

let union_summary a b =
  match (a, b) with
  | Touches_everything, _ | _, Touches_everything -> Touches_everything
  | Touches xs, Touches ys -> Touches (StringSet.union xs ys)

let summary_equal a b =
  match (a, b) with
  | Touches_everything, Touches_everything -> true
  | Touches xs, Touches ys -> StringSet.equal xs ys
  | Touches_everything, Touches _ | Touches _, Touches_everything -> false

let touches_global s g =
  match s with
  | Touches_everything -> true
  | Touches xs -> StringSet.mem g xs

(** Bottom-up touched-globals summaries, in the same depth-first order as
    the allocator.  Procedures inside a call-graph cycle get the union over
    the cycle (computed by iterating to a fixpoint, which converges in at
    most |SCC| rounds since summaries only grow). *)
let compute_summaries (cg : Callgraph.t) (prog : Ir.prog) =
  let summaries : (string, summary) Hashtbl.t = Hashtbl.create 16 in
  let summary_of name =
    Option.value ~default:(Touches StringSet.empty)
      (Hashtbl.find_opt summaries name)
  in
  let proc_summary (p : Ir.proc) =
    let direct, _ = direct_touches p in
    let base = if Ir.has_indirect_call p then Touches_everything
      else Touches direct
    in
    let calls_unknown =
      List.exists
        (fun f -> Ir.find_proc prog f = None)
        (Ir.direct_callees p)
    in
    let base = if calls_unknown then Touches_everything else base in
    List.fold_left
      (fun acc f ->
        match Ir.find_proc prog f with
        | Some _ -> union_summary acc (summary_of f)
        | None -> Touches_everything)
      base (Ir.direct_callees p)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun name ->
        match Ir.find_proc prog name with
        | None -> ()
        | Some p ->
            let s = proc_summary p in
            let same =
              match Hashtbl.find_opt summaries name with
              | Some old -> summary_equal old s
              | None -> false
            in
            if not same then begin
              Hashtbl.replace summaries name s;
              changed := true
            end)
      (Callgraph.processing_order cg)
  done;
  summaries

(* frequency-weighted access count of each global in [p], using the same
   10^loop-depth estimate as the allocator's priorities: promotion must buy
   more than it costs (one entry load, plus one exit store when written) *)
let weighted_accesses (p : Ir.proc) =
  let cfg = Cfg.of_proc p in
  let dom = Dom.compute cfg in
  let loops = Loops.compute cfg dom in
  let weights = Liverange.default_weights p loops in
  let acc = ref StringMap.empty in
  Array.iteri
    (fun l b ->
      let w = weights.(l) in
      List.iter
        (fun i ->
          match i with
          | Ir.Load (_, Ir.Global_word (g, 0))
          | Ir.Store (Ir.Global_word (g, 0), _) ->
              acc :=
                StringMap.update g
                  (fun v -> Some (Option.value ~default:0. v +. w))
                  !acc
          | _ -> ())
        b.Ir.insts)
    p.Ir.blocks;
  !acc

(** Promotable globals for one procedure: accessed here, scalar-only,
    untouched by every call made here, and frequently enough used that the
    entry-load/exit-store overhead pays for itself. *)
let promotable_in summaries prog scalars (p : Ir.proc) =
  let direct, written = direct_touches p in
  let weights = weighted_accesses p in
  let callee_summary =
    if Ir.has_indirect_call p then Touches_everything
    else
      List.fold_left
        (fun acc f ->
          match Ir.find_proc prog f with
          | Some _ -> (
              union_summary acc
                (Option.value
                   ~default:(Touches StringSet.empty)
                   (Hashtbl.find_opt summaries f)))
          | None -> Touches_everything)
        (Touches StringSet.empty) (Ir.direct_callees p)
  in
  let candidates =
    StringSet.filter
      (fun g ->
        StringSet.mem g scalars
        && (not (touches_global callee_summary g))
        &&
        let benefit =
          Option.value ~default:0. (StringMap.find_opt g weights)
        in
        let overhead = if StringSet.mem g written then 2.5 else 1.5 in
        benefit > overhead)
      direct
  in
  (candidates, written)

(* rewrite one procedure in place *)
let transform_proc (p : Ir.proc) candidates written =
  if not (StringSet.is_empty candidates) then begin
    let vreg_of = Hashtbl.create 4 in
    let kinds = ref (Array.to_list p.Ir.vreg_kinds) in
    StringSet.iter
      (fun g ->
        Hashtbl.replace vreg_of g p.Ir.nvregs;
        p.Ir.nvregs <- p.Ir.nvregs + 1;
        kinds := !kinds @ [ Ir.Vlocal (g ^ "@global") ])
      candidates;
    p.Ir.vreg_kinds <- Array.of_list !kinds;
    let rewrite_inst = function
      | Ir.Load (d, Ir.Global_word (g, 0)) when Hashtbl.mem vreg_of g ->
          Ir.Mov (d, Hashtbl.find vreg_of g)
      | Ir.Store (Ir.Global_word (g, 0), o) when Hashtbl.mem vreg_of g -> (
          let v = Hashtbl.find vreg_of g in
          match o with Ir.Reg s -> Ir.Mov (v, s) | Ir.Imm n -> Ir.Li (v, n))
      | i -> i
    in
    Array.iter
      (fun b ->
        b.Ir.insts <- List.map rewrite_inst b.Ir.insts;
        (* write-back of modified globals before each return *)
        match b.Ir.term with
        | Ir.Ret _ ->
            let writebacks =
              StringSet.fold
                (fun g acc ->
                  if StringSet.mem g written then
                    Ir.Store
                      (Ir.Global_word (g, 0), Ir.Reg (Hashtbl.find vreg_of g))
                    :: acc
                  else acc)
                candidates []
            in
            b.Ir.insts <- b.Ir.insts @ writebacks
        | Ir.Jump _ | Ir.Cbranch _ -> ())
      p.Ir.blocks;
    (* initial load at the entry *)
    let entry = p.Ir.blocks.(Ir.entry_label) in
    let loads =
      StringSet.fold
        (fun g acc ->
          Ir.Load (Hashtbl.find vreg_of g, Ir.Global_word (g, 0)) :: acc)
        candidates []
    in
    entry.Ir.insts <- loads @ entry.Ir.insts
  end

(** [transform prog] promotes global scalars procedure by procedure,
    mutating the program in place.  Returns the number of (procedure,
    global) promotions performed, for diagnostics. *)
let transform (prog : Ir.prog) =
  let cg = Callgraph.build prog in
  let scalars = scalar_only_globals prog in
  let summaries = compute_summaries cg prog in
  let count = ref 0 in
  List.iter
    (fun p ->
      let candidates, written = promotable_in summaries prog scalars p in
      count := !count + StringSet.cardinal candidates;
      transform_proc p candidates written)
    prog.Ir.procs;
  Chow_ir.Verify.check_prog prog;
  !count
