(** [simulate]: the Table-1 suite compiled once at -O3+sw during set-up,
    then executed repeatedly with [Pipeline.run] (decoded engine,
    contract checker on).  The unit of work is one pass (13 executions,
    in a seeded order); every pass must print the pinned values and
    produce the same code-quality totals. *)

module Pipeline = Chow_compiler.Pipeline

(** Compile the suite, each compile timed between two probes of the
    host's speed; appends each compile's time to [lat]. *)
let compile_suite tally lat =
  List.filter_map
    (fun (name, src) ->
      Measure.guard tally name (fun () ->
          let c, dt =
            Measure.normalized (fun () ->
                Pipeline.compile_source (Check.o3sw 1) (Pipeline.Src src))
          in
          lat := dt :: !lat;
          (name, c)))
    Inputs.table1

let run tally ~golden ~seed ~seconds =
  let rng = Random.State.make [| seed |] in
  let cold = ref [] and compiled = ref [] in
  let setups =
    List.init Measure.setups (fun _ ->
        let lat = ref [] in
        compiled := compile_suite tally lat;
        cold := List.rev_append !lat !cold;
        List.fold_left ( +. ) 0. !lat)
  in
  (* each execution is timed between two probes of the host's speed *)
  let first = ref None and passes = ref [] and runs = ref 0 in
  let t0 = Measure.now () in
  while Measure.now () -. t0 < seconds do
    let totals, dt =
      List.fold_left
        (fun (acc, dt) (name, c) ->
          match Measure.guard tally name (fun () -> Measure.normalized (fun () -> Pipeline.run c)) with
          | Some (o, t) ->
              incr runs;
              Check.expect tally ~golden name o;
              (Check.add acc o (Check.code_words c), dt +. t)
          | None -> (acc, dt))
        (Check.zero, 0.)
        (Inputs.shuffle rng !compiled)
    in
    passes := dt :: !passes;
    match !first with
    | None -> first := Some totals
    | Some t when t = totals -> ()
    | Some _ -> Measure.fail tally "code totals changed between passes"
  done;
  ( Measure.end_to_end tally
      ~tail:("p50 of passes", fun ops -> Stats.percentile ops 50.)
      ~setups ~ops:!passes ~cold:!cold ~completed:!runs
      ~elapsed:(List.fold_left ( +. ) 0. !passes)
      ~rss:(Measure.peak_rss_mb ()),
    !first )
