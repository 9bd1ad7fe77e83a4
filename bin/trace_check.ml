(** The bench-regression gate over two [BENCH_timing.json] files, run
    by [bench/dune]'s [@ci] rule and driven by [test/test_bench_gate.ml]:

    [trace_check --bench-compare BASELINE.json CURRENT.json]

    It reads only the timings no other gate measures: the
    [chow88/incr/*] pair and the [server/*] rows (the paper's exact
    save/restore counts are pinned by [test/bench_counts.txt] under
    [dune runtest], compile and simulate times by pawnbench).  Every
    baseline row must be present in CURRENT with a non-null estimate,
    else the gate fails naming it.  [chow88/*] timings may not regress
    by more than 25%; [server/*] p50 latency rows by more than 50% (p99
    rows get a 3x band — tails are noisy; queue_wait_p99 rows, being
    power-of-two bucket upper bounds, get 4x so single-bucket jitter
    can't flake the gate) and [server/*/throughput] rows may not fall
    below half the baseline.  The warm-shard mixes are exempt from
    cross-run bands (not from being present) on hosts with fewer than 4
    cores — without real parallelism they measure scheduler timesharing,
    not sharding.  When the current file carries server rows, invariants
    internal to that file are also enforced: the warm p50 must be at
    least 4x below the cold p50, the warm-logged p50 must stay within 2x
    and the warm-sampled p50 within 1.1x of the silent warm p50, and —
    on hosts with at least 4 cores, per the [server/meta/cores] row —
    the 4-shard warm throughput must not fall more than 5% below the
    1-shard one (a noise band, so a single-run tie can't flake the
    gate).

    Exits nonzero with a diagnostic naming every violation.  The binary
    goes with [BENCH_timing.json] once pawnbench gates these timings. *)

module Json = Chow_obs.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* [(name, estimate)] per row: a timing's [ns_per_run] or a count's
   [value]; [None] when the field is null or absent (Bechamel writes a
   NaN estimate as null) *)
let bench_rows path =
  match Json.parse (read_file path) with
  | Error msg -> fail "%s: JSON does not parse: %s" path msg
  | Ok (Json.Arr rows) ->
      List.map
        (fun row ->
          match Json.member "name" row with
          | Some (Json.Str name) -> (
              match (Json.member "ns_per_run" row, Json.member "value" row) with
              | Some (Json.Num f), _ | None, Some (Json.Num f) -> (name, Some f)
              | _ -> (name, None))
          | _ -> fail "%s: row lacks a \"name\" field" path)
        rows
  | Ok _ -> fail "%s: top-level JSON value is not an array" path

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let ends_with ~suffix s =
  let sl = String.length suffix and nl = String.length s in
  nl >= sl && String.sub s (nl - sl) sl = suffix

(** Invariants the compile-server rows must satisfy within one freshly
    measured file: a warm request must be at least 4x faster than a cold
    one at the median, and on a host with >= 4 cores the 4-shard cache
    must not sustain measurably LESS warm throughput than the 1-shard
    one — single-run throughput is noisy, so a tie or a within-noise
    inversion (up to 5%) passes; only a real regression fails (the
    [server/meta/cores] row gates the check so a starved CI machine
    cannot flake it). *)
let server_invariants ~flunk current =
  let est name = Option.join (List.assoc_opt name current) in
  if List.exists (fun (name, _) -> starts_with ~prefix:"server/" name) current
  then begin
    (match (est "server/warm/p50", est "server/cold/p50") with
    | Some warm, Some cold when warm > 0. ->
        if warm *. 4. > cold then
          flunk
            (Printf.sprintf
               "server warm p50 (%.1f us) is not at least 4x below cold p50 \
                (%.1f us) — the artifact-cache hit path is not paying off"
               (warm /. 1e3) (cold /. 1e3))
    | _ -> flunk "server/warm/p50 or server/cold/p50 row missing");
    (* structured logging must stay cheap: the warm mix rerun with the
       log enabled may cost at most 2x the silent warm mix at the median
       (the acceptance gate the observability layer ships under) *)
    (match (est "server/warm-logged/p50", est "server/warm/p50") with
    | Some logged, Some warm when warm > 0. ->
        if logged > warm *. 2. then
          flunk
            (Printf.sprintf
               "server warm-logged p50 (%.1f us) is more than 2x the silent \
                warm p50 (%.1f us) — logging overhead is out of budget"
               (logged /. 1e3) (warm /. 1e3))
    | _ -> ());
    (* continuous telemetry must be near-free: the warm mix rerun with
       the background sampler armed may cost at most 1.1x the silent warm
       mix at the median (the acceptance gate the telemetry layer ships
       under — a sampler that taxes the serving path 10% is a bug, not an
       observability feature) *)
    (match (est "server/warm-sampled/p50", est "server/warm/p50") with
    | Some sampled, Some warm when warm > 0. ->
        if sampled > warm *. 1.1 then
          flunk
            (Printf.sprintf
               "server warm-sampled p50 (%.1f us) is more than 1.1x the \
                silent warm p50 (%.1f us) — telemetry sampling overhead is \
                out of budget"
               (sampled /. 1e3) (warm /. 1e3))
    | _ -> ());
    match est "server/meta/cores" with
    | Some cores when cores >= 4. -> (
        match
          ( est "server/warm-shard4/throughput",
            est "server/warm-shard1/throughput" )
        with
        | Some t4, Some t1 ->
            (* 5% noise band: benchmark throughput from one run jitters
               a few percent on a healthy host, and the gate must only
               catch sharding actually hurting, not a measurement tie *)
            if t4 < t1 *. 0.95 then
              flunk
                (Printf.sprintf
                   "4-shard warm throughput (%.0f req/s) measurably below \
                    1-shard (%.0f req/s, >5%% down) on a %.0f-core host — \
                    cache sharding is not relieving lock contention"
                   t4 t1 cores)
        | _ -> flunk "server warm-shard throughput rows missing")
    | _ -> ()
  end

(** The cross-run band of a baseline row: [`Max r] fails a current
    estimate above [r] x the baseline, [`Min r] one below it.  Tail
    latencies are far noisier than medians, so p99 rows get 3x where p50
    gets 1.5x; queue_wait_p99 rows are histogram bucket upper bounds
    (powers of two), so one bucket of jitter on each side is 4x and only
    a shift of three or more buckets flags. *)
let band name : [ `Max of float | `Min of float | `Skip | `Unknown ] =
  if starts_with ~prefix:"chow88/" name then `Max 1.25
  else if not (starts_with ~prefix:"server/" name) then `Unknown
  else if starts_with ~prefix:"server/meta/" name then `Skip
  else if ends_with ~suffix:"/throughput" name then `Min 0.5
  else if ends_with ~suffix:"queue_wait_p99" name then `Max 4.0
  else if ends_with ~suffix:"p99" name then `Max 3.0
  else `Max 1.5

let check_bench_compare baseline_path current_path =
  let baseline = bench_rows baseline_path in
  let current = bench_rows current_path in
  let checked = ref 0 and shard_skipped = ref 0 in
  let failures = ref [] in
  let flunk fmt =
    Printf.ksprintf (fun m -> failures := m :: !failures) fmt
  in
  (* the shard mixes exist to measure cache-shard contention relief, which
     needs worker domains actually running in parallel.  On a host with
     fewer than 4 cores their latency is dominated by how the scheduler
     happens to timeshare one CPU — identical full runs have produced 5x
     spreads — so cross-run bands on them gate nothing but noise.  Same
     reasoning (and same [server/meta/cores] row) as the shard-throughput
     invariant in {!server_invariants}. *)
  let cores =
    Option.value ~default:0.
      (Option.join (List.assoc_opt "server/meta/cores" current))
  in
  List.iter
    (fun (name, base) ->
      match (base, List.assoc_opt name current) with
      | _, None -> flunk "%s: baseline row missing from %s" name current_path
      | None, _ -> flunk "%s: null estimate in %s" name baseline_path
      | _, Some None -> flunk "%s: null estimate in %s" name current_path
      | Some b, Some (Some c) -> (
          match band name with
          | `Unknown -> flunk "%s: no band for this row" name
          | `Skip -> ()
          | _ when starts_with ~prefix:"server/warm-shard" name && cores < 4.
            ->
              incr shard_skipped
          | `Max limit ->
              incr checked;
              if c > b *. limit then
                flunk
                  "%s regressed: %.1f -> %.1f ns/run (+%.1f%%, limit %.0f%%)"
                  name b c
                  (100. *. (c -. b) /. b)
                  (100. *. (limit -. 1.))
          | `Min floor ->
              incr checked;
              if c < b *. floor then
                flunk
                  "%s throughput collapsed: %.0f -> %.0f req/s (below half \
                   the baseline)"
                  name b c))
    baseline;
  server_invariants ~flunk:(fun m -> failures := m :: !failures) current;
  (match !failures with
  | [] -> ()
  | fs ->
      List.iter prerr_endline (List.rev fs);
      exit 1);
  Printf.printf "%s vs %s: %d rows within band%s\n" current_path baseline_path
    !checked
    (if !shard_skipped > 0 then
       Printf.sprintf " (%d shard rows skipped: <4 cores)" !shard_skipped
     else "")

let () =
  match Sys.argv with
  | [| _; "--bench-compare"; baseline; current |] ->
      check_bench_compare baseline current
  | _ ->
      prerr_endline
        "usage: trace_check --bench-compare BASELINE.json CURRENT.json";
      exit 2
