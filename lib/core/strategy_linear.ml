(** Linear-scan register allocation (the [linear] strategy of
    {!Allocator}).

    One pass over the live ranges ordered by the first block of their
    span, granting each range the first compatible register — the classic
    fast-tier allocator shape (Poletto-Sarkar), adapted to this IR in two
    ways:

    - conflicts are checked against the exact interference graph instead
      of interval overlap, so the pass is never {e less} precise than the
      block-granular ranges it scans (interval overlap over such coarse
      ranges would be a strict over-approximation and only forbid more);
    - there is no cost model and no splitting.  A range that spans calls
      merely {e prefers} registers its callees leave alone; when none is
      free it takes a clobbered one and lets the call-plan machinery of
      {!Alloc_shared.finish} pay the save/restore around every call —
      exactly the penalty the paper's per-pair priorities exist to avoid,
      which is what makes this strategy a meaningful baseline for the
      strategy matrix.

    Everything downstream — the callee-saved contract, shrink-wrapping,
    IPRA masks — is shared with the other strategies via
    {!Alloc_shared.finish}. *)

module Bitset = Chow_support.Bitset
module Ir = Chow_ir.Ir
module Machine = Chow_machine.Machine
module Event = Chow_obs.Event
open Alloc_types

let name = "linear"

(* first and last block id of the range's span: the "interval" the scan
   orders by.  Block ids are layout order, which is the closest thing the
   IR has to the linear instruction order of the classic algorithm. *)
let interval (r : Liverange.range) =
  let lo = ref max_int and hi = ref (-1) in
  Bitset.iter
    (fun l ->
      if l < !lo then lo := l;
      if l > !hi then hi := l)
    r.Liverange.blocks;
  (!lo, !hi)

let allocate ?explain:_ (config : Machine.config)
    (mode : Alloc_shared.mode) (p : Ir.proc) :
    result * Usage.info option * Alloc_shared.stats =
  let a = Alloc_shared.analyze config mode p in
  let lr = a.Alloc_shared.lr in
  let assignment = Array.make p.Ir.nvregs Lstack in
  (* registers clobbered by at least one call each range spans: the scan
     prefers to keep call-spanning ranges out of these *)
  let clobbered_across v =
    List.fold_left
      (fun m cs_id -> m lor a.Alloc_shared.site_clobber.(cs_id))
      0 lr.Liverange.ranges.(v).Liverange.calls_across
  in
  let order =
    List.init p.Ir.nvregs (fun v -> v)
    |> List.filter (fun v ->
           lr.Liverange.ranges.(v).Liverange.weighted_refs > 0.)
    |> List.sort (fun u v ->
           let iu = interval lr.Liverange.ranges.(u)
           and iv = interval lr.Liverange.ranges.(v) in
           compare (iu, u) (iv, v))
  in
  let scan_one v =
    let forbidden =
      Bitset.fold
        (fun u m ->
          match assignment.(u) with Lreg r -> m lor (1 lsl r) | Lstack -> m)
        (Interference.neighbors a.Alloc_shared.ig v)
        0
    in
    let hot = clobbered_across v in
    (* two passes over the allocatable list in machine preference order:
       first a register no spanned call clobbers, then any register *)
    let pick pred =
      List.find_opt
        (fun r -> (not (Machine.mask_mem forbidden r)) && pred r)
        config.Machine.allocatable
    in
    match
      match pick (fun r -> not (Machine.mask_mem hot r)) with
      | Some r -> Some r
      | None -> pick (fun _ -> true)
    with
    | Some r -> assignment.(v) <- Lreg r
    | None -> ()
  in
  Event.span "linear_scan" (fun () -> List.iter scan_one order);
  let result, info, stats = Alloc_shared.finish config mode p a assignment in
  Alloc_shared.publish_metrics result stats;
  (result, info, stats)
