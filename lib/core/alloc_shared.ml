(** The strategy-independent halves of register allocation.

    Every allocation strategy (see {!Allocator}) answers one question —
    which virtual registers live in which physical registers — but the
    work around that question is fixed by the paper's machinery, not by
    the strategy:

    - {b before}: control flow, dominators, loops, liveness, live ranges,
      the interference graph, and the per-call-site IPRA context (clobber
      masks and argument conventions of the callees);
    - {b after}: the callee-saved contract, shrink-wrapped save/restore
      placement (§5), the §6 combining rule, per-call-site plans,
      parameter arrival locations, and the published usage summary of a
      closed procedure.

    {!analyze} computes the former, {!finish} derives the latter from a
    bare [location array].  A strategy is then just the code in between,
    and anything it produces — however naive — flows through the same
    shrink-wrap and IPRA plumbing as the paper's priority coloring. *)

module Bitset = Chow_support.Bitset
module Ir = Chow_ir.Ir
module Cfg = Chow_ir.Cfg
module Dom = Chow_ir.Dom
module Loops = Chow_ir.Loops
module Machine = Chow_machine.Machine
module Event = Chow_obs.Event
module Metrics = Chow_obs.Metrics
open Alloc_types

(** IPRA context of one allocation, shared by every strategy. *)
type mode = {
  ipra : bool;
  shrinkwrap : bool;
  is_open : bool;  (** this procedure's §3 classification; forced when not ipra *)
  usage : Usage.table;
}

let rec popcount m = if m = 0 then 0 else 1 + popcount (m land (m - 1))

let intra_mode ~shrinkwrap =
  { ipra = false; shrinkwrap; is_open = true; usage = Usage.create_table () }

(** Diagnostics for tests, examples and the figure benches. *)
type stats = {
  s_nranges : int;
  s_allocated : int;
  s_distinct_regs : int;
  s_sw_iterations : int;
  s_splits : int;  (** live-range splits performed *)
}

(** Everything {!analyze} computes before any assignment decision. *)
type analysis = {
  cfg : Cfg.t;
  dom : Dom.t;
  loops : Loops.t;
  lv : Liveness.t;
  lr : Liverange.t;
  ig : Interference.t;
  honor_contract : bool;
      (** must this procedure preserve the callee-saved contract? *)
  usage : Usage.table;  (** the table consulted (empty when not IPRA) *)
  site_clobber : int array;
      (** per call site: mask of the registers the callee may modify *)
  site_arg_locs : param_loc list array;
      (** per call site: argument destinations under the callee's convention *)
  callee_clobbers : int;  (** union of [site_clobber] *)
}

let analyze (config : Machine.config) (mode : mode) (p : Ir.proc) =
  let cfg = Cfg.of_proc p in
  let dom = Dom.compute cfg in
  let loops = Loops.compute cfg dom in
  let lv = Event.span "liveness" (fun () -> Liveness.compute p cfg) in
  let ig = Event.span "interference" (fun () -> Interference.build p lv) in
  let lr =
    Event.span "ranges" (fun () -> Liverange.compute p loops lv ig)
  in
  let honor_contract = (not mode.ipra) || mode.is_open in
  let usage = if mode.ipra then mode.usage else Usage.create_table () in
  let site_clobber =
    Array.map
      (fun cs -> Usage.clobber_of_call usage cs.Liverange.cs_target)
      lr.Liverange.call_sites
  in
  let site_arg_locs =
    Array.map
      (fun cs ->
        Usage.arg_locs_of_call usage config cs.Liverange.cs_target
          (List.length cs.Liverange.cs_args))
      lr.Liverange.call_sites
  in
  (* union of everything our callees may clobber *)
  let callee_clobbers = Array.fold_left ( lor ) 0 site_clobber in
  {
    cfg;
    dom;
    loops;
    lv;
    lr;
    ig;
    honor_contract;
    usage;
    site_clobber;
    site_arg_locs;
    callee_clobbers;
  }

let finish (config : Machine.config) (mode : mode) (p : Ir.proc)
    (a : analysis) (assignment : location array) :
    result * Usage.info option * stats =
  let { lv; lr; cfg; loops; site_clobber; site_arg_locs; callee_clobbers; _ }
      =
    a
  in
  let honor_contract = a.honor_contract in
  (* ----- contract registers and save/restore placement ----- *)
  (* register sets are immediate masks ([Machine.nregs] fits an int) *)
  let own_assigned =
    Array.fold_left
      (fun m loc -> match loc with Lreg r -> m lor (1 lsl r) | Lstack -> m)
      0 assignment
  in
  let candidates =
    List.filter
      (Machine.mask_mem (own_assigned lor callee_clobbers))
      Machine.callee_saved
  in
  let candidate_mask = Machine.mask_of_list candidates in
  let has_calls = Array.length lr.Liverange.call_sites > 0 in
  (* APP: blocks where each candidate register carries a protected value *)
  let app = Array.make (Ir.nblocks p) 0 in
  Array.iteri
    (fun v loc ->
      match loc with
      | Lreg r when Machine.mask_mem candidate_mask r ->
          let bit = 1 lsl r in
          Bitset.iter
            (fun l -> app.(l) <- app.(l) lor bit)
            lr.Liverange.ranges.(v).Liverange.blocks
      | Lreg _ | Lstack -> ())
    assignment;
  Array.iteri
    (fun cs_id cs ->
      let l = cs.Liverange.cs_block in
      app.(l) <-
        app.(l)
        lor (site_clobber.(cs_id) land candidate_mask)
        lor (1 lsl Machine.ra))
    lr.Liverange.call_sites;
  let sw_candidates =
    (if has_calls then [ Machine.ra ] else []) @ candidates
  in
  let placement =
    Event.span "shrinkwrap" (fun () ->
        if mode.shrinkwrap then Shrinkwrap.place cfg loops ~app sw_candidates
        else Shrinkwrap.entry_exit_placement cfg sw_candidates)
  in
  (* §6 combining rule: closed procedures propagate a register's
     save/restore to their parents exactly when the save would sit at the
     procedure entry (or always, when shrink-wrap is off). [ra] never
     propagates: it is meaningful only within the current activation, and
     it is not a candidate. *)
  let propagated =
    if honor_contract then 0
    else if not mode.shrinkwrap then candidate_mask
    else
      Machine.mask_of_list placement.Shrinkwrap.entry_save
      land candidate_mask
  in
  let is_propagated r = Machine.mask_mem propagated r in
  let save_at =
    List.filter
      (fun (_, r) -> not (is_propagated r))
      placement.Shrinkwrap.save_at
  in
  let restore_at =
    List.filter
      (fun (_, r) -> not (is_propagated r))
      placement.Shrinkwrap.restore_at
  in
  let contract_saves =
    (if has_calls then [ Machine.ra ] else [])
    @ List.filter (fun r -> not (is_propagated r)) candidates
  in

  (* ----- per-call-site plans ----- *)
  let call_plans = Hashtbl.create 8 in
  Array.iteri
    (fun cs_id cs ->
      (* clobbered registers carrying a live-across range, in order of
         their first vreg; [pending] drops each register once listed *)
      let pending = ref site_clobber.(cs_id) and saves = ref [] in
      Bitset.iter
        (fun v ->
          match assignment.(v) with
          | Lreg r when Machine.mask_mem !pending r ->
              pending := !pending land lnot (1 lsl r);
              saves := r :: !saves
          | Lreg _ | Lstack -> ())
        cs.Liverange.cs_live_across;
      Hashtbl.replace call_plans
        (cs.Liverange.cs_block, cs.Liverange.cs_index)
        { cp_arg_locs = site_arg_locs.(cs_id); cp_saves = List.rev !saves })
    lr.Liverange.call_sites;

  (* ----- parameter arrival locations ----- *)
  let entry_live = lv.Liveness.live_in.(Ir.entry_label) in
  let param_live = List.map (Bitset.mem entry_live) p.params in
  let param_locs =
    if honor_contract then
      List.mapi
        (fun i _ ->
          if i < config.Machine.n_param_regs then
            Preg (List.nth Machine.param_regs i)
          else Pstack)
        p.params
    else
      (* A dead-on-arrival parameter must not publish a register arrival:
         its assigned register reflects its later, internal live range,
         which need not interfere with the other parameters at entry — two
         parameters could then share one arrival register and the caller's
         argument moves would collide.  Live parameters are pairwise
         distinct (they interfere at entry); dead ones go to the stack,
         where the callee simply never reads them. *)
      List.map2
        (fun v live ->
          if not live then Pstack
          else
            match assignment.(v) with Lreg r -> Preg r | Lstack -> Pstack)
        p.params param_live
  in

  (* ----- published usage summary (closed procedures only) ----- *)
  let info =
    if honor_contract then None
    else begin
      let mask =
        (own_assigned lor callee_clobbers)
        land lnot (Machine.mask_of_list contract_saves)
      in
      Some { Usage.mask; param_locs }
    end
  in
  let result =
    {
      r_proc = p;
      r_assignment = assignment;
      r_param_locs = param_locs;
      r_param_live = param_live;
      r_call_plans = call_plans;
      r_contract_saves = contract_saves;
      r_save_at = save_at;
      r_restore_at = restore_at;
      r_open = honor_contract;
    }
  in
  let nranges =
    let n = ref 0 in
    Array.iter
      (fun r -> if r.Liverange.weighted_refs > 0. then incr n)
      lr.Liverange.ranges;
    !n
  in
  let stats =
    {
      s_nranges = nranges;
      s_allocated =
        Array.fold_left
          (fun acc loc -> match loc with Lreg _ -> acc + 1 | Lstack -> acc)
          0 assignment;
      s_distinct_regs = popcount own_assigned;
      s_sw_iterations = placement.Shrinkwrap.iterations;
      s_splits = 0;
    }
  in
  (result, info, stats)

(* ----- shared allocation metrics, published by every strategy ----- *)

let m_procs = Metrics.counter "color.procs"
let m_ranges = Metrics.counter "color.ranges"
let m_allocated = Metrics.counter "color.allocated"
let m_spilled = Metrics.counter "color.spilled"
let m_splits = Metrics.counter "color.splits"
let m_sw_iterations = Metrics.counter "color.sw_iterations"
let m_reg_caller = Metrics.counter "color.reg_caller_saved"
let m_reg_callee = Metrics.counter "color.reg_callee_saved"
let m_reg_param = Metrics.counter "color.reg_param"
let h_ranges_per_proc = Metrics.histogram "color.ranges_per_proc"

let publish_metrics (result : result) (stats : stats) =
  if Metrics.is_on () then begin
    Metrics.incr m_procs;
    Metrics.add m_ranges stats.s_nranges;
    Metrics.add m_allocated stats.s_allocated;
    Metrics.add m_spilled (stats.s_nranges - stats.s_allocated);
    Metrics.add m_splits stats.s_splits;
    Metrics.add m_sw_iterations stats.s_sw_iterations;
    Metrics.observe h_ranges_per_proc stats.s_nranges;
    Array.iter
      (function
        | Lreg r -> (
            match Machine.class_of r with
            | Machine.Caller_saved -> Metrics.incr m_reg_caller
            | Machine.Callee_saved -> Metrics.incr m_reg_callee
            | Machine.Param -> Metrics.incr m_reg_param)
        | Lstack -> ())
      result.r_assignment
  end
