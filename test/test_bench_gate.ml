(** [trace_check --bench-compare], the bench-regression gate, driven as a
    subprocess on small synthetic baseline/current files: a current file
    within its bands passes, and each class of violation — a timing out
    of band, a missing row, a null estimate, a broken in-run server
    ratio — fails with a diagnostic naming what broke. *)

(* [(name, field, JSON literal)]: one row of every band class, with the
   server rows satisfying the in-run invariants (warm 4x below cold,
   warm-sampled within 1.1x of warm) *)
let baseline =
  [
    ("chow88/incr/4units-cold", "ns_per_run", "100000.0");
    ("chow88/incr/4units-warm", "ns_per_run", "20000.0");
    ("server/cold/p50", "ns_per_run", "4200000.0");
    ("server/warm/p50", "ns_per_run", "1000000.0");
    ("server/warm/p99", "ns_per_run", "5000000.0");
    ("server/warm/queue_wait_p99", "ns_per_run", "8192000.0");
    ("server/warm-sampled/p50", "ns_per_run", "1000000.0");
    ("server/warm-shard4/p50", "ns_per_run", "1000000.0");
    ("server/meta/cores", "value", "1");
    ("server/warm/throughput", "value", "2000");
  ]

let write_rows rows =
  let path = Filename.temp_file "chow88-bench-gate" ".json" in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "[\n";
      List.iteri
        (fun i (name, field, v) ->
          Printf.fprintf oc "  {\"name\": %S, %S: %s}%s\n" name field v
            (if i < List.length rows - 1 then "," else ""))
        rows;
      output_string oc "]\n");
  path

(* [current] is the baseline with [edits] applied: [Some v] replaces a
   row's literal, [None] drops the row *)
let compare edits =
  let current =
    List.filter_map
      (fun ((name, field, _) as row) ->
        match List.assoc_opt name edits with
        | None -> Some row
        | Some None -> None
        | Some (Some v) -> Some (name, field, v))
      baseline
  in
  let base_path = write_rows baseline and cur_path = write_rows current in
  let out = Filename.temp_file "chow88-bench-gate" ".out" in
  let code =
    Sys.command
      (Printf.sprintf "%s --bench-compare %s %s >%s 2>&1"
         (Filename.quote (Test_server.bin_exe "trace_check"))
         (Filename.quote base_path) (Filename.quote cur_path)
         (Filename.quote out))
  in
  let text = In_channel.with_open_text out In_channel.input_all in
  List.iter Sys.remove [ base_path; cur_path; out ];
  (code, text)

let test_within_bands () =
  let code, text =
    compare
      [
        ("chow88/incr/4units-cold", Some "124000.0");
        ("server/warm/p99", Some "14000000.0");
        (* shard bands are skipped below 4 cores; the row must exist *)
        ("server/warm-shard4/p50", Some "9000000.0");
        ("server/warm/throughput", Some "1100");
      ]
  in
  Alcotest.(check int) ("exit 0; output: " ^ text) 0 code;
  Alcotest.(check bool) "reports the rows compared" true
    (Test_server.contains "rows within band" text)

let fails ~edits ~names () =
  let code, text = compare edits in
  Alcotest.(check bool) ("nonzero exit; output: " ^ text) true (code <> 0);
  List.iter
    (fun name ->
      Alcotest.(check bool) (Printf.sprintf "%S in %S" name text) true
        (Test_server.contains name text))
    names

let suite =
  ( "bench-gate",
    [
      Alcotest.test_case "within bands passes" `Quick test_within_bands;
      Alcotest.test_case "chow88 row at +26% fails" `Quick
        (fails
           ~edits:[ ("chow88/incr/4units-cold", Some "126000.0") ]
           ~names:[ "chow88/incr/4units-cold regressed" ]);
      Alcotest.test_case "missing row fails" `Quick
        (fails
           ~edits:[ ("server/warm-shard4/p50", None) ]
           ~names:[ "server/warm-shard4/p50: baseline row missing" ]);
      Alcotest.test_case "null estimate fails" `Quick
        (fails
           ~edits:[ ("chow88/incr/4units-warm", Some "null") ]
           ~names:[ "chow88/incr/4units-warm: null estimate" ]);
      Alcotest.test_case "warm x4 > cold fails" `Quick
        (fails
           ~edits:[ ("server/warm/p50", Some "1100000.0") ]
           ~names:[ "not at least 4x below cold" ]);
      Alcotest.test_case "warm-sampled > 1.1x warm fails" `Quick
        (fails
           ~edits:[ ("server/warm-sampled/p50", Some "1200000.0") ]
           ~names:[ "warm-sampled p50" ]);
    ] )
