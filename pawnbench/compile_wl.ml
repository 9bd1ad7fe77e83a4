(** [compile]: the Table-1 suite compiled once at -O2 and once at
    -O3+sw per pass, closed-loop on one thread with -j1 and no cache.
    The unit of work is one pass (26 compiles, in a seeded order). *)

module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline

let jobs =
  List.concat_map
    (fun (name, src) -> [ (name, Check.o2, src); (name, Check.o3sw 1, src) ])
    Inputs.table1

(** One pass over [order]; appends each compile's seconds to [lat] and
    checks each program's code size against the first one seen. *)
let pass tally words lat order =
  List.iter
    (fun (name, (cfg : Config.t), src) ->
      let key = (name, cfg.Config.name) in
      match
        Measure.guard tally name (fun () ->
            Measure.timed (fun () ->
                Check.code_words (Pipeline.compile_source cfg (Pipeline.Src src))))
      with
      | Some (w, dt) -> (
          lat := dt :: !lat;
          match Hashtbl.find_opt words key with
          | None -> Hashtbl.add words key w
          | Some w' when w' = w -> ()
          | Some w' ->
              Measure.fail tally "%s at %s: %d code words, earlier %d" name
                cfg.Config.name w w')
      | None -> ())
    order

(** Total -O3+sw code words of the suite, as compiled by the passes. *)
let o3_words words =
  Hashtbl.fold
    (fun (_, cfg) w acc -> if cfg = (Check.o3sw 1).Config.name then acc + w else acc)
    words 0

let run tally ~seed ~seconds =
  let rng = Random.State.make [| seed |] in
  let words = Hashtbl.create 32 in
  (* one pass at the reference speed: its time and its compiles' times *)
  let timed_pass () =
    let lat = ref [] in
    let (), dt, f =
      Measure.between_probes (fun () -> pass tally words lat (Inputs.shuffle rng jobs))
    in
    (dt *. f, List.map (( *. ) f) !lat)
  in
  let setups = List.init Measure.setups (fun _ -> fst (timed_pass ())) in
  let passes = ref [] and lat = ref [] in
  let t0 = Measure.now () in
  while Measure.now () -. t0 < seconds do
    let dt, l = timed_pass () in
    passes := dt :: !passes;
    lat := List.rev_append l !lat
  done;
  ( Measure.end_to_end tally
      ~tail:("p90 of passes", fun ops -> Stats.percentile ops 90.)
      ~setups ~ops:!passes ~cold:!lat
      ~completed:(List.length !lat)
      ~elapsed:(List.fold_left ( +. ) 0. !passes)
      ~rss:(Measure.peak_rss_mb ()),
    o3_words words )
