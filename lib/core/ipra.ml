(** One-pass inter-procedural register allocation driver (§2).

    Processes the procedures of a program in depth-first order of the call
    graph (callees first).  Each closed procedure publishes its
    register-usage summary into the shared table before any caller is
    allocated, so a single pass suffices.  With [ipra = false] every
    procedure is allocated with the default linkage convention, which is the
    paper's [-O2] baseline.

    The pass order only requires callee summaries to exist before their
    callers are colored, so the driver walks the call graph wave by wave
    ([Callgraph.proc_waves]) and colors the procedures of one wave concurrently
    on a domain pool: per-procedure liveness, interference and coloring are
    independent, and the usage table is read-only while a wave is in
    flight.  Summaries are then published sequentially in processing
    order, so [results], [usage] and [stats] are identical to the
    sequential driver's whatever the pool size. *)

module Ir = Chow_ir.Ir
module Machine = Chow_machine.Machine
module Pool = Chow_support.Pool
module Event = Chow_obs.Event
module Metrics = Chow_obs.Metrics

let m_waves = Metrics.counter "ipra.waves"
let m_masks = Metrics.counter "ipra.masks_published"

type t = {
  results : (string * Alloc_types.result) list;  (** in processing order *)
  usage : Usage.table;
  callgraph : Callgraph.t;
  stats : (string * Coloring.stats) list;
}

let find t name = List.assoc_opt name t.results

(** [allocate_program ...]: [jobs] is the parallelism used for each wave
    (a fresh pool, ignored when [pool] supplies a shared one).  [strategy]
    selects the allocation policy (default the paper's priority
    coloring); every strategy flows through the same IPRA publication. *)
let allocate_program ?(ipra = false) ?(shrinkwrap = false)
    ?(strategy = Allocator.Chow) ?(jobs = 1) ?pool ?explain (config : Machine.config) (prog : Ir.prog) =
  let callgraph = Callgraph.build prog in
  let usage = Usage.create_table () in
  let results = ref [] in
  let stats = ref [] in
  let allocate_one ~wave_idx (p : Ir.proc) =
    let name = p.Ir.pname in
    let is_open = (not ipra) || Callgraph.is_open callgraph name in
    let mode = { Coloring.ipra; shrinkwrap; is_open; usage } in
    let explain =
      match explain with
      | Some (target, buf) when target = name -> Some buf
      | _ -> None
    in
    let result, info, st =
      (* the span name and args are built only when tracing is armed:
         the disabled path must not allocate per procedure *)
      if Event.trace_on () then
        Event.span
          ~args:
            [
              ("wave", Event.Int wave_idx);
              ("open", Event.Str (if is_open then "yes" else "no"));
            ]
          ("alloc:" ^ name)
          (fun () ->
            Allocator.allocate strategy ?explain config mode p)
      else Allocator.allocate strategy ?explain config mode p
    in
    (name, result, info, st)
  in
  let run pool =
    List.iteri
      (fun wave_idx wave ->
        Metrics.incr m_waves;
        let do_wave () =
          let allocated =
            Pool.parallel_map pool wave (allocate_one ~wave_idx)
          in
          (* sequential publication, in processing order *)
          List.iter
            (fun (name, result, info, st) ->
              results := (name, result) :: !results;
              stats := (name, st) :: !stats;
              Option.iter
                (fun i ->
                  Usage.publish usage name i;
                  Metrics.incr m_masks)
                info)
            allocated
        in
        if Event.trace_on () then
          Event.span
            ~args:
              [
                ("wave", Event.Int wave_idx);
                ("procs", Event.Int (List.length wave));
              ]
            "wave" do_wave
        else do_wave ())
      (Callgraph.proc_waves callgraph)
  in
  (match pool with
  | Some p -> run p
  | None -> Pool.with_pool jobs run);
  {
    results = List.rev !results;
    usage;
    callgraph;
    stats = List.rev !stats;
  }
