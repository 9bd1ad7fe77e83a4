(** The benchmark's entry point:

    [bench.exe --workload compile|simulate|serve --seed N --seconds S
    --trace 0|1 --pawnc PATH]

    With [--trace 0] it measures the workload and prints its end-to-end
    metrics, ending with the verification pass ({!Check}); with
    [--trace 1] it walks every layer with the workload's inputs and prints
    the per-layer metrics ({!Layers}).  The last line of standard output
    is the JSON result. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and pawnc = ref "_build/default/bin/pawnc.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "compile | simulate | serve");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run");
      ("--pawnc", Arg.Set_string pawnc, "PATH the pawnc executable");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let golden = Inputs.golden "pawnbench/golden.txt" in
  let tally = Measure.tally () in
  let seed = !seed and seconds = !seconds in
  let metrics =
    match (!workload, !trace) with
    | _, t when t <> 0 && t <> 1 -> raise (Arg.Bad "--trace takes 0 or 1")
    | w, 1 -> Layers.run tally ~workload:w ~golden ~pawnc:!pawnc ~seed ~seconds
    | "compile", _ ->
        let m, words = Compile_wl.run tally ~seed ~seconds in
        let totals, code = Check.run tally ~golden in
        Measure.attempt tally;
        if words <> totals.Check.words then
          Measure.fail tally "-O3+sw code words %d in the passes, %d in the check"
            words totals.Check.words;
        m @ List.map (fun c -> (c, None)) code
    | "simulate", _ ->
        let m, pass_totals = Simulate_wl.run tally ~golden ~seed ~seconds in
        let totals, code = Check.run tally ~golden in
        Measure.attempt tally;
        if pass_totals <> Some totals then
          Measure.fail tally "code totals of the passes differ from the check";
        m @ List.map (fun c -> (c, None)) code
    | "serve", _ ->
        let m = Serve_wl.run tally ~pawnc:!pawnc ~seed ~seconds in
        m @ List.map (fun c -> (c, None)) (snd (Check.run tally ~golden))
    | w, _ -> raise (Arg.Bad ("unknown workload " ^ w))
  in
  Printf.printf "%s workload, seed %d, %g s, trace %d: %d attempted, %d failed (failed_ratio %g)\n"
    !workload seed seconds !trace tally.Measure.attempted tally.Measure.failed
    (float_of_int tally.Measure.failed /. float_of_int (max 1 tally.Measure.attempted));
  List.iter (fun (m, samples) -> Measure.describe ?samples m) metrics;
  if tally.Measure.attempted = 0 then exit 1;
  Measure.print_result tally (List.map fst metrics)
