(** Benchmark driver.  With no arguments it regenerates every table and
    figure of the paper, the ablation, global-promotion and splitting
    experiments, and the Bechamel compiler-throughput timings; individual
    experiments run with [table1], [table2], [tables], [fig1].. [fig4],
    [figures], [ablation], [promo], [split], [timing]. *)

let usage () =
  print_endline
    "usage: main.exe \
     [all|table1|table2|tables|fig1..fig4|figures|ablation|promo|split|timing] \
     [--json] [--smoke] [--serve] [--trace FILE]";
  exit 1

(* pull the [--trace FILE] pair out of the argument list *)
let rec extract_trace = function
  | [] -> (None, [])
  | [ "--trace" ] -> usage ()
  | "--trace" :: path :: rest ->
      let _, rest = extract_trace rest in
      (Some path, rest)
  | x :: rest ->
      let t, rest = extract_trace rest in
      (t, x :: rest)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let trace, args = extract_trace args in
  let json = List.mem "--json" args in
  let smoke = List.mem "--smoke" args in
  let serve = List.mem "--serve" args in
  let args =
    List.filter
      (fun a -> a <> "--json" && a <> "--smoke" && a <> "--serve")
      args
  in
  let args = if args = [] then [ "all" ] else args in
  List.iter
    (fun arg ->
      match arg with
      | "all" ->
          ignore (Tables.run ());
          Figures.run ();
          Ablation.run ();
          Promo_bench.run ();
          Split_bench.run ();
          Timing.run ~json ~smoke ~serve ?trace ()
      | "table1" -> Tables.run_table1 ()
      | "table2" -> Tables.run_table2 ()
      | "tables" -> ignore (Tables.run ())
      | "fig1" -> Figures.fig1 ()
      | "fig2" -> Figures.fig2 ()
      | "fig3" -> Figures.fig3 ()
      | "fig4" -> Figures.fig4 ()
      | "figures" -> Figures.run ()
      | "ablation" -> Ablation.run ()
      | "promo" -> Promo_bench.run ()
      | "split" -> Split_bench.run ()
      | "timing" ->
          Timing.run ~json ~smoke ~serve ?trace ()
      | _ -> usage ())
    args
