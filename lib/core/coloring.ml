(** Priority-based coloring register allocation with the paper's
    extensions (§2, §4, §6) — the [chow] strategy of {!Allocator}.

    The basic algorithm is Chow-Hennessy priority coloring: live ranges are
    ranked by frequency-weighted memory operations saved per unit of range
    size, and granted registers in rank order subject to interference.  The
    paper's extension computes the priority {e per variable-register pair}:

    - a caller-saved register costs a save/restore around every call the
      range spans whose callee may clobber it (under IPRA, "may clobber"
      comes from the callee's published mask; otherwise every call clobbers
      every caller-saved register);
    - a callee-saved register additionally costs one entry/exit save-restore
      the first time the procedure touches it — but only when the procedure
      must honor the callee-saved contract (intra-procedural mode, or an
      open procedure under IPRA).  Closed procedures under IPRA use every
      register in caller-saved mode (§2), so callee-saved registers are
      free there until a spanned call clobbers them;
    - passing an argument from a register that is already the callee's
      parameter register saves a move, which appears as a bonus (§4);
      symmetrically, a parameter that stays in its arrival register saves
      the prologue copy.

    Ties prefer a register already used in the current call tree, which
    minimises the registers touched per tree (paper Fig. 1 discussion).

    The analyses feeding the colorer and everything downstream of the
    assignment (contract, shrink-wrap placement, call plans, published
    summaries) live in {!Alloc_shared} and are common to every strategy;
    this module contributes the §2/§4 cost model and live-range
    splitting. *)

module Bitset = Chow_support.Bitset
module Ir = Chow_ir.Ir
module Machine = Chow_machine.Machine
module Event = Chow_obs.Event
open Alloc_types

type mode = Alloc_shared.mode = {
  ipra : bool;
  shrinkwrap : bool;
  is_open : bool;  (** this procedure's §3 classification; forced when not ipra *)
  usage : Usage.table;
}

let intra_mode = Alloc_shared.intra_mode

(** Diagnostics for tests, examples and the figure benches. *)
type stats = Alloc_shared.stats = {
  s_nranges : int;
  s_allocated : int;
  s_distinct_regs : int;
  s_sw_iterations : int;
  s_splits : int;  (** live-range splits performed *)
}

let save_restore_cost = float_of_int (Machine.load_cost + Machine.store_cost)
let move_bonus = float_of_int Machine.move_cost

(** The §2 decision audit trail behind [pawnc compile --explain]: for one
    live range, the priority each candidate register scored and the
    save/restore penalties and move bonuses that produced it. *)
type reg_explain = {
  x_reg : Machine.reg;
  x_forbidden : bool;  (** blocked by an interfering neighbour's color *)
  x_score : float;
  x_call_penalty : float;  (** around-call save/restores (caller-saved) *)
  x_entry_penalty : float;  (** entry/exit save-restore (callee-saved) *)
  x_arg_bonus : float;  (** argument already in the callee's register (§4) *)
  x_arrival_bonus : float;  (** parameter kept in its arrival register *)
}

type range_explain = {
  x_vreg : Ir.vreg;
  x_name : string;  (** source-level name, or ["_"] for temporaries *)
  x_rank : float;  (** ordering priority: weighted refs per block of span *)
  x_refs : float;
  x_span : int;
  x_ncalls : int;  (** call sites the range spans *)
  x_regs : reg_explain list;  (** every allocatable register, in order *)
  x_chosen : Machine.reg option;
  x_denied : string option;  (** reason when no register was granted *)
  x_freed : (string * Machine.reg list) list;
      (** spanned closed callees whose published mask leaves the listed
          default-clobbered registers free across the call (IPRA only) *)
}

type explanation = range_explain list ref

let vreg_name (p : Ir.proc) v =
  match p.Ir.vreg_kinds.(v) with
  | Ir.Vlocal n -> n
  | Ir.Vparam (n, _) -> n ^ " (param)"
  | Ir.Vtemp -> "_"

let callee_saved_mask = Machine.mask_of_list Machine.callee_saved

(* Scanning [order] and keeping the best (score, tree-used) pair picks the
   same register; this finds it without scoring the plain registers one by
   one.  Scores are never NaN, so [>] and [=] order them totally. *)
let choose_register ~order ~order_mask ~forbidden ~tree_used ~special ~score
    ~refs ~costly =
  let cands = order_mask land lnot forbidden in
  let explicit = cands land special in
  let plain = cands land lnot special in
  let cheap = plain land lnot costly and dear = plain land costly in
  let dear_score = refs -. save_restore_cost in
  let top =
    ref
      (if cheap <> 0 then refs
       else if dear <> 0 then dear_score
       else neg_infinity)
  in
  let rest = ref explicit and r = ref 0 in
  while !rest <> 0 do
    if !rest land 1 <> 0 && score.(!r) > !top then top := score.(!r);
    rest := !rest lsr 1;
    incr r
  done;
  let top = !top in
  let winners =
    ref
      ((if refs = top then cheap else 0)
      lor if dear_score = top then dear else 0)
  in
  let rest = ref explicit and r = ref 0 in
  while !rest <> 0 do
    if !rest land 1 <> 0 && score.(!r) = top then
      winners := !winners lor (1 lsl !r);
    rest := !rest lsr 1;
    incr r
  done;
  let winners =
    if !winners land tree_used <> 0 then !winners land tree_used else !winners
  in
  let k = ref 0 and n = Array.length order in
  while !k < n && winners land (1 lsl order.(!k)) = 0 do
    incr k
  done;
  if !k < n then order.(!k) else -1

let allocate_once ?weights ?explain (config : Machine.config) (mode : mode)
    (p : Ir.proc) =
  let a = Alloc_shared.analyze ?weights config mode p in
  let { Alloc_shared.lr; ig; site_arg_locs; honor_contract; usage; _ } = a in
  let ranges = lr.Liverange.ranges and sites = lr.Liverange.call_sites in
  let explained = ref [] in

  (* ----- per-procedure tables ----- *)
  let site_clobber = a.Alloc_shared.site_clobber in
  (* the callee's argument register per (site, position), or -1 *)
  let site_arg_reg =
    Array.map
      (fun locs ->
        Array.of_list
          (List.map (function Preg r -> r | Pstack -> -1) locs))
      site_arg_locs
  in
  (* closed-callee masks only: the tie-break preference set of Fig. 1,
     extended by every register this procedure assigns *)
  let tree_used =
    ref
      (Array.fold_left
         (fun m cs ->
           match cs.Liverange.cs_target with
           | Ir.Direct f -> (
               match Usage.find usage f with
               | Some info -> m lor info.Usage.mask
               | None -> m)
           | Ir.Indirect _ -> m)
         0 sites)
  in
  (* callee-saved registers whose first use costs an entry/exit
     save-restore: none in caller-saved mode, and none a callee already
     clobbers (the contract pays for those anyway) *)
  let contract_free =
    if honor_contract then
      callee_saved_mask land lnot a.Alloc_shared.callee_clobbers
    else 0
  in
  let callee_saved_in_use = ref 0 in
  let allocatable = Array.of_list config.Machine.allocatable in
  let allocatable_mask = Machine.mask_of_list config.Machine.allocatable in
  (* default arrival register of each parameter, used for the prologue-copy
     bonus when the default convention applies; -1 for none *)
  let arrival = Array.make p.nvregs (-1) in
  if honor_contract then
    List.iteri
      (fun i v ->
        if i < config.Machine.n_param_regs then
          arrival.(v) <- List.nth Machine.param_regs i)
      p.params;
  let assignment = Array.make p.nvregs Lstack in
  (* colors of each range's already-assigned neighbours *)
  let forbidden = Array.make p.nvregs 0 in

  (* priority order: weighted refs per block of range span (paper [11]) *)
  let rank =
    Array.map
      (fun r -> r.Liverange.weighted_refs /. float_of_int (max 1 r.Liverange.span))
      ranges
  in
  let order =
    List.init p.nvregs Fun.id
    |> List.filter (fun v -> ranges.(v).Liverange.weighted_refs > 0.)
    |> List.stable_sort (fun a b -> Float.compare rank.(b) rank.(a))
  in
  (* the per-range score table: [around.(r)] and [argb.(r)] accumulate the
     §2 around-call penalty and §4 argument bonus of register [r], walking
     the range's call sites in list order so each sum is the same float a
     per-register fold would produce; [score.(r)] is the composed
     priority, filled for the registers the range touched (every
     allocatable one when explaining).  Selection and the --explain record
     both read these.  [dirty] masks the entries the previous range left
     non-zero. *)
  let around = Array.make Machine.nregs 0. in
  let argb = Array.make Machine.nregs 0. in
  let score = Array.make Machine.nregs 0. in
  let dirty = ref 0 in
  let add_around cs_id =
    let cost = save_restore_cost *. sites.(cs_id).Liverange.cs_weight in
    let m = site_clobber.(cs_id) in
    dirty := !dirty lor m;
    let rest = ref m and r = ref 0 in
    while !rest <> 0 do
      if !rest land 1 <> 0 then around.(!r) <- around.(!r) +. cost;
      rest := !rest lsr 1;
      incr r
    done
  in
  let add_argb (cs_id, pos) =
    let regs = site_arg_reg.(cs_id) in
    if pos < Array.length regs && regs.(pos) >= 0 then begin
      let r = regs.(pos) in
      argb.(r) <- argb.(r) +. (move_bonus *. sites.(cs_id).Liverange.cs_weight);
      dirty := !dirty lor (1 lsl r)
    end
  in
  let contract_of r =
    if contract_free land lnot !callee_saved_in_use land (1 lsl r) <> 0 then
      save_restore_cost
    else 0.
  in
  (* the composed priority of [r], written into [score.(r)] rather than
     returned so no float is boxed *)
  let fill_score refs arrival r =
    score.(r) <-
      refs +. argb.(r)
      +. (if r = arrival then move_bonus else 0.)
      -. around.(r) -. contract_of r
  in
  let color_one v =
    let range = ranges.(v) in
    let forbidden_v = forbidden.(v) in
    if !dirty <> 0 then begin
      for r = 0 to Machine.nregs - 1 do
        if !dirty land (1 lsl r) <> 0 then begin
          around.(r) <- 0.;
          argb.(r) <- 0.
        end
      done;
      dirty := 0
    end;
    List.iter add_around range.Liverange.calls_across;
    List.iter add_argb range.Liverange.arg_moves;
    let arrival = arrival.(v) in
    let refs = range.Liverange.weighted_refs in
    (* only the registers this range's calls and argument moves touched,
       and its arrival register, need an explicit score; every other one
       scores [refs], less the entry/exit save where [costly] says so *)
    let special =
      if arrival >= 0 then !dirty lor (1 lsl arrival) else !dirty
    in
    let costly = contract_free land lnot !callee_saved_in_use in
    if explain <> None then Array.iter (fill_score refs arrival) allocatable
    else begin
      let rest = ref (special land allocatable_mask) and r = ref 0 in
      while !rest <> 0 do
        if !rest land 1 <> 0 then fill_score refs arrival !r;
        rest := !rest lsr 1;
        incr r
      done
    end;
    let best =
      choose_register ~order:allocatable ~order_mask:allocatable_mask
        ~forbidden:forbidden_v ~tree_used:!tree_used ~special ~score ~refs
        ~costly
    in
    let best_score =
      if best < 0 then neg_infinity
      else begin
        if special land (1 lsl best) = 0 then fill_score refs arrival best;
        score.(best)
      end
    in
    (* the audit record is taken before the assignment mutates the
       tie-break and contract state, so the recorded scores are exactly
       the ones the decision just ranked *)
    if explain <> None then begin
      let regs =
        List.map
          (fun r ->
            {
              x_reg = r;
              x_forbidden = forbidden_v land (1 lsl r) <> 0;
              x_score = score.(r);
              x_call_penalty = around.(r);
              x_entry_penalty = contract_of r;
              x_arg_bonus = argb.(r);
              x_arrival_bonus = (if r = arrival then move_bonus else 0.);
            })
          config.Machine.allocatable
      in
      let chosen, denied =
        if best < 0 then
          ( None,
            Some
              "every allocatable register is blocked by an interfering \
               neighbour" )
        else if best_score > 0. then (Some best, None)
        else
          ( None,
            Some
              (Printf.sprintf
                 "best candidate %s has non-positive priority %.1f"
                 (Machine.name best) best_score) )
      in
      let freed =
        List.filter_map
          (fun cs_id ->
            match sites.(cs_id).Liverange.cs_target with
            | Ir.Direct f -> (
                match Usage.find usage f with
                | Some info ->
                    Some
                      ( f,
                        List.filter
                          (fun r -> not (Machine.mask_mem info.Usage.mask r))
                          (Machine.caller_saved @ Machine.param_regs) )
                | None -> None)
            | Ir.Indirect _ -> None)
          range.Liverange.calls_across
        |> List.sort_uniq compare
      in
      explained :=
        {
          x_vreg = v;
          x_name = vreg_name p v;
          x_rank = rank.(v);
          x_refs = range.Liverange.weighted_refs;
          x_span = range.Liverange.span;
          x_ncalls = List.length range.Liverange.calls_across;
          x_regs = regs;
          x_chosen = chosen;
          x_denied = denied;
          x_freed = freed;
        }
        :: !explained
    end;
    if best >= 0 && best_score > 0. then begin
      let bit = 1 lsl best in
      assignment.(v) <- Lreg best;
      tree_used := !tree_used lor bit;
      if callee_saved_mask land bit <> 0 then
        callee_saved_in_use := !callee_saved_in_use lor bit;
      Bitset.iter
        (fun u -> forbidden.(u) <- forbidden.(u) lor bit)
        (Interference.neighbors ig v)
    end
  in
  Event.span "color" (fun () -> List.iter color_one order);
  Option.iter (fun b -> b := List.rev !explained) explain;
  let result, info, stats = Alloc_shared.finish config mode p a assignment in
  (result, info, stats, a.Alloc_shared.loops, lr)

let max_split_attempts = 8
let max_splits_kept = 3

(* total frequency-weighted traffic of the memory-resident ranges: the
   quantity a split must reduce to be worth keeping *)
let spill_cost (lr : Liverange.t) (assignment : location array) =
  let total = ref 0. in
  Array.iteri
    (fun v loc ->
      if loc = Lstack then
        total := !total +. lr.Liverange.ranges.(v).Liverange.weighted_refs)
    assignment;
  !total

(** Allocation with live-range splitting: when a range with loop-resident
    references fails to get a register, speculatively split its in-loop
    portion into a fresh range (see {!Split}) and re-run the allocation.
    A split is kept only when the new range actually receives a register;
    otherwise the procedure is rolled back, so splitting can never make
    the code worse. *)
let allocate ?weights ?explain (config : Machine.config) (mode : mode)
    (p : Ir.proc) : result * Usage.info option * stats =
  let attempted = Hashtbl.create 8 in
  let rec go ~attempts ~kept =
    let result, info, stats, loops, lr =
      allocate_once ?weights ?explain config mode p
    in
    if attempts >= max_split_attempts || kept >= max_splits_kept then
      (result, info, stats, kept)
    else
      match
        Split.find_candidate p loops lr result.r_assignment ~attempted
      with
      | None -> (result, info, stats, kept)
      | Some (v, loop) ->
          Hashtbl.replace attempted (v, loop.Chow_ir.Loops.header) ();
          let snap = Split.snapshot p in
          let v' = Split.apply p v loop in
          Hashtbl.replace attempted (v', loop.Chow_ir.Loops.header) ();
          (* trials never record an explanation: the audit trail always
             reflects the allocation that is actually returned, which comes
             from the [allocate_once] at the top of the final iteration *)
          let trial, _, _, _, trial_lr =
            allocate_once ?weights config mode p
          in
          let before = spill_cost lr result.r_assignment in
          let after = spill_cost trial_lr trial.r_assignment in
          if trial.r_assignment.(v') = Lstack || after +. 2. >= before then begin
            (* no net gain (the split spilled, or merely evicted something
               equally hot): undo *)
            Split.restore p snap;
            go ~attempts:(attempts + 1) ~kept
          end
          else go ~attempts:(attempts + 1) ~kept:(kept + 1)
  in
  let result, info, stats, kept = go ~attempts:0 ~kept:0 in
  let stats = { stats with s_splits = kept } in
  Alloc_shared.publish_metrics result stats;
  (result, info, stats)

(* ----- the --explain report ----- *)

let class_label = function
  | Machine.Caller_saved -> "caller-saved"
  | Machine.Callee_saved -> "callee-saved"
  | Machine.Param -> "param"

let pp_reg_list ppf regs =
  Format.fprintf ppf "{%a}"
    (Chow_support.Pp.list
       ~sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Machine.pp)
    regs

(** Render one procedure's decisions, in the priority order the allocator
    considered them.  For each live range: the ranking priority, the best
    candidate of each register class with the §2 penalties and §4 bonuses
    behind its score, the granted register (or the denial reason), and the
    callee masks that freed caller-saved registers across spanned calls. *)
let pp_explanation ppf (ds : range_explain list) =
  let pp_range (d : range_explain) =
    Format.fprintf ppf "%%%d %s: priority %.1f (refs %.1f, span %d), spans %d call site%s@."
      d.x_vreg d.x_name d.x_rank d.x_refs d.x_span d.x_ncalls
      (if d.x_ncalls = 1 then "" else "s");
    List.iter
      (fun cls ->
        let of_class =
          List.filter (fun x -> Machine.class_of x.x_reg = cls) d.x_regs
        in
        let candidates = List.filter (fun x -> not x.x_forbidden) of_class in
        match (of_class, candidates) with
        | [], _ -> ()  (* class not allocatable under this machine config *)
        | _ :: _, [] ->
            Format.fprintf ppf "  %-12s all registers blocked by interference@."
              (class_label cls)
        | _, first :: rest ->
            let best =
              List.fold_left
                (fun b x -> if x.x_score > b.x_score then x else b)
                first rest
            in
            Format.fprintf ppf
              "  %-12s best %-4s score %.1f  (call penalty %.1f, entry \
               penalty %.1f, arg bonus %.1f, arrival bonus %.1f)@."
              (class_label cls)
              (Machine.name best.x_reg)
              best.x_score best.x_call_penalty best.x_entry_penalty
              best.x_arg_bonus best.x_arrival_bonus)
      [ Machine.Caller_saved; Machine.Param; Machine.Callee_saved ];
    (match (d.x_chosen, d.x_denied) with
    | Some r, _ -> Format.fprintf ppf "  => %s@." (Machine.name r)
    | None, Some why -> Format.fprintf ppf "  => memory (%s)@." why
    | None, None -> Format.fprintf ppf "  => memory@.");
    List.iter
      (fun (callee, regs) ->
        Format.fprintf ppf "  mask of %s frees %a across its calls@." callee
          pp_reg_list regs)
      d.x_freed
  in
  match ds with
  | [] -> Format.fprintf ppf "no live ranges with references@."
  | ds -> List.iter pp_range ds
