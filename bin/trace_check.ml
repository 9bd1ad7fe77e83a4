(** CI smoke validator.  Every smoke runs PAWNC in a fresh temp dir, so
    the [@ci] rules that call it produce no build targets.

    [trace_check --trace-smoke PAWNC SRC.pawn] runs [PAWNC run SRC --O3
    --stats --trace] and checks that it produced (1) a trace file that
    parses as a JSON array of Chrome trace events, each with the required
    fields and a known phase, containing the key pipeline spans; and (2) a
    stats dump naming the load-bearing counters.

    [trace_check --cache-smoke PAWNC UNIT.pawn...] builds the N units
    twice against one fresh [--cache-dir] and checks the stats dump of
    the warm rebuild: every unit must have come from the artifact cache
    ([cache.hit] = N, [cache.miss] = 0 — the zero-recompilation contract
    of the content-addressed store).

    [trace_check --bench-compare BASELINE.json CURRENT.json] is the
    bench-regression gate over two [BENCH_timing.json] files.  It reads
    only the timings no other gate measures: the [chow88/incr/*] pair
    and the [server/*] rows (the paper's exact save/restore counts are
    pinned by [test/bench_counts.txt] under [dune runtest], compile and
    simulate times by pawnbench).  Every baseline row must be present in
    CURRENT with a non-null estimate, else the gate fails naming it.
    [chow88/*] timings may not regress by more than 25%; [server/*] p50
    latency rows by more than 50% (p99 rows get a 3x band — tails are
    noisy; queue_wait_p99 rows, being power-of-two bucket upper bounds,
    get 4x so single-bucket jitter can't flake the gate) and
    [server/*/throughput] rows may not fall below half the baseline.
    The warm-shard mixes are exempt from cross-run bands (not from being
    present) on hosts with fewer than 4 cores — without real parallelism
    they measure scheduler timesharing, not sharding.  When the current
    file carries server rows, invariants internal to that file are also
    enforced: the warm p50 must be at least 4x below the cold p50, the
    warm-logged p50 must stay within 2x and the warm-sampled p50 within
    1.1x of the silent warm p50, and — on hosts with at least 4 cores,
    per the [server/meta/cores] row — the 4-shard warm throughput must
    not fall more than 5% below the 1-shard one (a noise band, so a
    single-run tie can't flake the gate).

    [trace_check --alloc-smoke PAWNC SRC.pawn] is the strategy-matrix CI
    smoke: it runs SRC under [--alloc chow], [--alloc linear] and
    [--alloc spill-all] (all -O3), checks that the three runs print the
    same program output, and that chow's dynamic save/restore plus
    spill-home memory operations land strictly below spill-all's.

    [trace_check --pgo-smoke PAWNC SRC.pawn] is the profile-guided
    inlining CI smoke: it profiles SRC with [PAWNC profile --emit],
    re-runs the program plain and under [--pgo] (with a forcing
    [--inline-budget 2]), and checks that both runs print the same
    program output while the PGO run executes no more save/restore
    memory operations than the plain one.

    [trace_check --serve-smoke PAWNC SRC.pawn] is the daemon CI smoke:
    it starts [PAWNC serve] on a fresh socket and cache with the
    structured log and the flight recorder's postmortem dump armed,
    issues a cold run request and a warm run request under fixed request
    ids (asserting the warm per-request counter delta shows [cache.hit]
    = 1 and the [Done] replies carry sane queue-wait/service timings), a
    run request asking for more than [Sim.default_fuel] (expecting a
    protocol [Error] naming the bound, then a [Pong] to a [Ping]), a
    malformed frame AND a well-formed frame of the previous protocol
    version (both expecting a protocol [Error] reply, not a wedged or
    dead server), checks [Stats] reports [server.completed] = 2 with
    [cache.hit] = 1 and the per-class histograms accounting both
    requests phase by phase, pulls a flight-recorder dump over the wire
    (it must parse and hold both request lifecycles), and shuts the
    daemon down.  Before the shutdown, both requests' [done] lines must
    already be in the log file (the log streams).  After it, the smoke
    requires a clean exit 0, a postmortem flight dump on disk from the
    protocol errors, and a log where every line parses via [Obs.Json] in
    timestamp order and every request-scoped line carries one of the
    smoke's ids.

    [trace_check --telemetry-smoke PAWNC SRC.pawn] is the continuous
    telemetry CI smoke: it starts [PAWNC serve] with 100ms sampling into
    a JSON-lines time-series file, drives one compile through it, pulls
    the OpenMetrics page over the wire (checking the grammar — every
    sample belongs to a declared [# TYPE] family with the suffix shape
    its instrument requires, buckets are cumulative and closed by
    [le="+Inf"], the page ends with [# EOF] — and that the daemon's
    required counter/gauge/histogram families are all present), runs
    [PAWNC request health] expecting exit 0 and a leading "ready", and
    after a clean shutdown asserts the time-series holds at least two
    samples with monotone timestamps, each a parsing JSON object with a
    numeric [ts] and a [metrics] object.

    Exits nonzero with a diagnostic on the first violation. *)

module Json = Chow_obs.Json

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let required_spans = [ "parse"; "lower"; "allocate"; "color"; "sim" ]

let required_counters =
  [ "color.ranges"; "dataflow.worklist_pops"; "sim.cycles" ]

let check_trace path =
  let events =
    match Json.parse (read_file path) with
    | Error msg -> fail "%s: JSON does not parse: %s" path msg
    | Ok (Json.Arr events) -> events
    | Ok _ -> fail "%s: top-level JSON value is not an array" path
  in
  let span_names =
    List.filter_map
      (fun ev ->
        let str k =
          match Json.member k ev with
          | Some (Json.Str s) -> s
          | _ -> fail "%s: event lacks string field %S" path k
        in
        let num k =
          match Json.member k ev with
          | Some (Json.Num f) -> f
          | _ -> fail "%s: event lacks numeric field %S" path k
        in
        let name = str "name" in
        ignore (num "ts");
        ignore (num "tid");
        match str "ph" with
        | "X" ->
            if num "dur" < 0. then fail "%s: span %s has negative dur" path name;
            Some name
        | "C" -> None
        | ph -> fail "%s: event %s has unknown phase %S" path name ph)
      events
  in
  List.iter
    (fun name ->
      if not (List.mem name span_names) then
        fail "%s: required span %S missing" path name)
    required_spans;
  Printf.printf "%s: %d events, %d spans ok\n" path (List.length events)
    (List.length span_names)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(** Run [argv] with stdout captured, returning (exit code, output).
    Stderr passes through so a failing step's diagnostic lands in the CI
    log next to the smoke's own verdict. *)
let run_capture argv =
  let out_read, out_write = Unix.pipe () in
  let pid =
    Unix.create_process argv.(0) argv Unix.stdin out_write Unix.stderr
  in
  Unix.close out_write;
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read out_read chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
  in
  drain ();
  Unix.close out_read;
  let _, status = Unix.waitpid [] pid in
  let code =
    match status with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED n | Unix.WSTOPPED n -> 128 + n
  in
  (code, Buffer.contents buf)

(** A fresh private directory under the system temp dir. *)
let temp_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

let check_stats path =
  let txt = read_file path in
  List.iter
    (fun counter ->
      if not (contains ~needle:counter txt) then
        fail "%s: required counter %S missing from stats output" path counter)
    required_counters;
  Printf.printf "%s: required counters present\n" path

(** The warm-rebuild contract: a stats dump whose [cache.hit] row equals
    the unit count and whose [cache.miss] row is zero. *)
let check_cache_smoke path expected_hits =
  let counter name =
    let txt = read_file path in
    let rec find = function
      | [] -> fail "%s: counter %S missing from stats output" path name
      | line :: rest -> (
          match String.split_on_char ' ' (String.trim line) with
          | first :: _ when first = name -> (
              let fields =
                List.filter
                  (fun f -> f <> "")
                  (String.split_on_char ' ' (String.trim line))
              in
              match List.rev fields with
              | last :: _ -> (
                  match int_of_string_opt last with
                  | Some v -> v
                  | None -> fail "%s: counter %S has non-numeric value" path name)
              | [] -> find rest)
          | _ -> find rest)
    in
    find (String.split_on_char '\n' txt)
  in
  let hits = counter "cache.hit" and misses = counter "cache.miss" in
  if hits <> expected_hits then
    fail "%s: warm rebuild expected cache.hit = %d, got %d" path expected_hits
      hits;
  if misses <> 0 then
    fail "%s: warm rebuild expected cache.miss = 0, got %d" path misses;
  Printf.printf "%s: warm rebuild served all %d units from the cache\n" path
    hits

(** Run SRC with [--stats --trace] armed in a temp dir, then check the
    trace and the stats dump as {!check_trace} and {!check_stats} do. *)
let check_trace_smoke pawnc src =
  let dir = temp_dir "chow88-trace" in
  let trace = Filename.concat dir "smoke_trace.json"
  and stats = Filename.concat dir "smoke_stats.txt" in
  let code, out =
    run_capture [| pawnc; "run"; src; "--O3"; "--stats"; "--trace"; trace |]
  in
  if code <> 0 then fail "trace smoke: run exited %d" code;
  Out_channel.with_open_bin stats (fun oc -> output_string oc out);
  check_trace trace;
  check_stats stats

(** Build UNITS twice against one fresh cache directory, then check the
    second build's stats dump as {!check_cache_smoke} does: every unit
    served from the cache. *)
let check_warm_cache_smoke pawnc units =
  let dir = temp_dir "chow88-cache" in
  let build () =
    let code, out =
      run_capture
        (Array.of_list
           ([ pawnc; "build" ] @ units
           @ [ "--O3"; "--cache-dir"; Filename.concat dir "cache"; "--stats" ]))
    in
    if code <> 0 then fail "cache smoke: build exited %d" code;
    out
  in
  ignore (build ());
  let stats = Filename.concat dir "cache_stats.txt" in
  Out_channel.with_open_bin stats (fun oc -> output_string oc (build ()));
  check_cache_smoke stats (List.length units)

(* ----- bench-regression gate ----- *)

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

(* ----- pgo smoke ----- *)

(** The program's own output: everything before the counter block that
    [--counters] appends (its header line starts with ["--- "]). *)
let program_output text =
  let rec take = function
    | [] -> []
    | line :: _ when starts_with ~prefix:"--- " line -> []
    | line :: rest -> line :: take rest
  in
  String.concat "\n" (take (String.split_on_char '\n' text))

(** Total save/restore memory operations from a [--counters] dump. *)
let save_restore_total ~what text =
  let rec find = function
    | [] -> fail "pgo smoke: %s run printed no save/restore counter" what
    | line :: rest -> (
        match
          Scanf.sscanf (String.trim line) "save/restore: %d loads, %d stores"
            (fun l s -> (l, s))
        with
        | l, s -> l + s
        | exception _ -> find rest)
  in
  find (String.split_on_char '\n' text)

(** Profile, then run plain vs [--pgo]; see the module doc for the
    contract.  [--inline-budget 2] forces inlining on any workload small
    enough for CI, so the smoke exercises the splice itself, not the
    budget's taste. *)
let check_pgo_smoke pawnc src =
  let dir = temp_dir "chow88-pgo" in
  let prof = Filename.concat dir "smoke.pwnp" in
  let code, out =
    run_capture [| pawnc; "profile"; src; "--O3"; "--emit"; prof |]
  in
  if code <> 0 then fail "pgo smoke: profile --emit exited %d" code;
  if not (contains ~needle:"call-site rows" out) then
    fail "pgo smoke: profile --emit did not report the rows it wrote";
  let plain_code, plain =
    run_capture [| pawnc; "run"; src; "--O3"; "--counters" |]
  in
  if plain_code <> 0 then fail "pgo smoke: plain run exited %d" plain_code;
  let pgo_code, pgo =
    run_capture
      [|
        pawnc; "run"; src; "--O3"; "--pgo"; prof; "--inline-budget"; "2";
        "--counters";
      |]
  in
  if pgo_code <> 0 then fail "pgo smoke: --pgo run exited %d" pgo_code;
  if program_output plain <> program_output pgo then
    fail
      "pgo smoke: program output differs between the plain and --pgo builds \
       — inlining changed observable behavior:\n\
       plain: %s\n\
       pgo:   %s"
      (program_output plain) (program_output pgo);
  let plain_sr = save_restore_total ~what:"plain" plain
  and pgo_sr = save_restore_total ~what:"--pgo" pgo in
  if pgo_sr > plain_sr then
    fail
      "pgo smoke: --pgo build executed %d save/restore memory operations, \
       plain build %d — inlining made the penalty worse"
      pgo_sr plain_sr;
  Printf.printf
    "pgo smoke: identical output, save/restore memops %d -> %d (%d removed)\n"
    plain_sr pgo_sr (plain_sr - pgo_sr)

(* ----- allocation-strategy smoke ----- *)

(** One named dynamic counter from a [--counters] dump, e.g.
    ["scalar loads:"]. *)
let counter_value ~what ~label text =
  let rec find = function
    | [] -> fail "alloc smoke: %s run printed no %S counter" what label
    | line :: rest ->
        let line = String.trim line in
        if starts_with ~prefix:label line then
          let rest_s =
            String.trim
              (String.sub line (String.length label)
                 (String.length line - String.length label))
          in
          match int_of_string_opt rest_s with
          | Some v -> v
          | None -> fail "alloc smoke: %s %S is not a number" what label
        else find rest
  in
  find (String.split_on_char '\n' text)

(** The strategy-matrix CI smoke: SRC must print the same program output
    under every [--alloc] strategy, and chow's save/restore plus
    spill-home memory traffic must land strictly below spill-all's.  See
    the module doc. *)
let check_alloc_smoke pawnc src =
  let run_strategy strategy =
    let code, out =
      run_capture
        [| pawnc; "run"; src; "--O3"; "--alloc"; strategy; "--counters" |]
    in
    if code <> 0 then fail "alloc smoke: --alloc %s run exited %d" strategy code;
    let penalty =
      save_restore_total ~what:("--alloc " ^ strategy) out
      + counter_value ~what:("--alloc " ^ strategy) ~label:"scalar loads:" out
      + counter_value ~what:("--alloc " ^ strategy) ~label:"scalar stores:" out
    in
    (program_output out, penalty)
  in
  let chow_out, chow_p = run_strategy "chow" in
  let linear_out, _ = run_strategy "linear" in
  let spill_out, spill_p = run_strategy "spill-all" in
  List.iter
    (fun (strategy, out) ->
      if out <> chow_out then
        fail
          "alloc smoke: program output differs between --alloc chow and \
           --alloc %s — the strategy changed observable behavior:\n\
           chow: %s\n\
           %s:   %s"
          strategy chow_out strategy out)
    [ ("linear", linear_out); ("spill-all", spill_out) ];
  if chow_p >= spill_p then
    fail
      "alloc smoke: chow executed %d save/restore+spill memory operations, \
       spill-all %d — priority coloring must be strictly cheaper"
      chow_p spill_p;
  Printf.printf
    "alloc smoke: identical output across 3 strategies, save/spill memops \
     chow %d < spill-all %d\n"
    chow_p spill_p

(* ----- daemon smoke ----- *)

module Protocol = Chow_server.Protocol
module Client = Chow_server.Client

(* the smoke's compile requests carry fixed, recognizable ids so the
   daemon's log lines and flight events can be matched back to them; the
   refused one asks for more fuel than the daemon allows *)
let cold_id = 424242
let warm_id = 424243
let refused_id = 424244

(** A flight-recorder dump (from the wire or the postmortem file) must
    parse, carry the capacity/dropped/events envelope, and still hold
    both smoke requests' lifecycles. *)
let check_flight ~what json =
  let root =
    match Json.parse json with
    | Error msg -> fail "serve smoke: %s does not parse: %s" what msg
    | Ok root -> root
  in
  (match Json.member "capacity" root with
  | Some (Json.Num c) when c > 0. -> ()
  | _ -> fail "serve smoke: %s lacks a positive \"capacity\"" what);
  (match Json.member "dropped" root with
  | Some (Json.Num d) when d >= 0. -> ()
  | _ -> fail "serve smoke: %s lacks a \"dropped\" count" what);
  let events =
    match Json.member "events" root with
    | Some (Json.Arr evs) -> evs
    | _ -> fail "serve smoke: %s lacks an \"events\" array" what
  in
  let has name req =
    List.exists
      (fun ev ->
        match (Json.member "event" ev, Json.member "req" ev) with
        | Some (Json.Str e), Some (Json.Num r) ->
            e = name && int_of_float r = req
        | _ -> false)
      events
  in
  List.iter
    (fun ev ->
      match (Json.member "ts" ev, Json.member "event" ev) with
      | Some (Json.Num _), Some (Json.Str _) -> ()
      | _ -> fail "serve smoke: %s holds an event without ts/event" what)
    events;
  List.iter
    (fun req ->
      List.iter
        (fun step ->
          if not (has step req) then
            fail "serve smoke: %s lost the %S event of request %d" what step
              req)
        [ "submit"; "exec-start"; "exec-done" ])
    [ cold_id; warm_id ];
  if
    not
      (List.exists
         (fun ev ->
           match Json.member "event" ev with
           | Some (Json.Str "protocol-error") -> true
           | _ -> false)
         events)
  then fail "serve smoke: %s holds no protocol-error event" what

(** The daemon's structured log: every line one JSON object with
    ts/level/event, every request-scoped line naming a smoke id, both
    requests reaching their [done] line. *)
let check_serve_log path =
  if not (Sys.file_exists path) then
    fail "serve smoke: daemon wrote no log at %s" path;
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' (read_file path))
  in
  if lines = [] then fail "serve smoke: %s is empty" path;
  let done_of = Hashtbl.create 4 in
  let last_ts = ref neg_infinity in
  List.iter
    (fun line ->
      let obj =
        match Json.parse line with
        | Ok obj -> obj
        | Error msg -> fail "serve smoke: log line does not parse (%s): %s" msg line
      in
      let ts =
        match Json.member "ts" obj with
        | Some (Json.Num ts) -> ts
        | _ -> fail "serve smoke: log line lacks a numeric \"ts\": %s" line
      in
      (* the merged writer promises timestamp order across domains *)
      if ts < !last_ts then
        fail "serve smoke: log line out of timestamp order: %s" line;
      last_ts := ts;
      (match Json.member "level" obj with
      | Some (Json.Str ("error" | "warn" | "info" | "debug")) -> ()
      | _ -> fail "serve smoke: log line lacks a known \"level\": %s" line);
      let event =
        match Json.member "event" obj with
        | Some (Json.Str e) -> e
        | _ -> fail "serve smoke: log line lacks an \"event\": %s" line
      in
      match Json.member "req" obj with
      | Some (Json.Num r) ->
          let r = int_of_float r in
          if r <> cold_id && r <> warm_id && r <> refused_id then
            fail "serve smoke: log line carries unknown request id %d: %s" r
              line;
          if event = "done" then Hashtbl.replace done_of r ()
      | Some _ -> fail "serve smoke: log line's \"req\" is not a number: %s" line
      | None -> ())
    lines;
  List.iter
    (fun req ->
      if not (Hashtbl.mem done_of req) then
        fail "serve smoke: request %d never logged its \"done\" line" req)
    [ cold_id; warm_id ];
  Printf.printf "%s: %d log lines parse, request ids match\n" path
    (List.length lines)

(** Cold + warm + malformed-frame round-trip against a freshly started
    [pawnc serve] daemon; see the module doc for the exact contract. *)
let check_serve_smoke pawnc src_path =
  let dir = temp_dir "chow88-smoke" in
  let sock = Filename.concat dir "s.sock" in
  let log_path = Filename.concat dir "serve.log.jsonl" in
  let flight_path = Filename.concat dir "flight.json" in
  let pid =
    Unix.create_process pawnc
      [|
        pawnc;
        "serve";
        "--socket";
        sock;
        "--workers";
        "2";
        "--cache-dir";
        Filename.concat dir "cache";
        "--log";
        log_path;
        "--log-level";
        "debug";
        "--flight-dump";
        flight_path;
      |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let server_done = ref false in
  (* a failing check must not leave an orphan daemon behind in CI *)
  at_exit (fun () ->
      if not !server_done then ( try Unix.kill pid Sys.sigkill with _ -> ()));
  if not (Client.wait_ready ~socket_path:sock ()) then
    fail "serve smoke: daemon did not answer Ping within 10s";
  let src = read_file src_path in
  let compile_req ?fuel id =
    Protocol.Compile
      {
        id;
        action = Protocol.Run;
        srcs = [ src ];
        o3 = true;
        shrinkwrap = true;
        global_promo = false;
        alloc = "chow";
        fuel;
        priority = 0;
      }
  in
  let request req = Client.with_connection ~socket_path:sock (fun c -> Client.request c req) in
  let delta counters name =
    Option.value ~default:0 (List.assoc_opt name counters)
  in
  (* 1. cold: full compile, the cache only stores *)
  (match request (compile_req cold_id) with
  | Protocol.Done { counters; queue_wait_ns; service_ns; _ } ->
      if delta counters "cache.miss" < 1 then
        fail "serve smoke: cold request reported no cache.miss delta";
      if queue_wait_ns < 0 || service_ns <= 0 then
        fail
          "serve smoke: cold Done carries degenerate timings (queue_wait %d \
           ns, service %d ns)"
          queue_wait_ns service_ns
  | reply -> fail "serve smoke: cold request failed (%s)"
      (match reply with
       | Protocol.Error { kind; message } -> kind ^ ": " ^ message
       | Protocol.Busy -> "busy"
       | _ -> "unexpected reply"));
  (* 2. warm: same source, must be served from the artifact cache *)
  (match request (compile_req warm_id) with
  | Protocol.Done { counters; _ } ->
      if delta counters "cache.hit" <> 1 then
        fail "serve smoke: warm request's counter delta has cache.hit = %d, \
              want 1"
          (delta counters "cache.hit")
  | _ -> fail "serve smoke: warm request failed");
  (* 2b. over the fuel ceiling: refused with a protocol Error naming the
     bound before it is queued, and the daemon still answers *)
  let fuel = Chow_sim.Sim.default_fuel + 1 in
  (match request (compile_req ~fuel refused_id) with
  | Protocol.Error { kind = "protocol"; message } ->
      if not (contains ~needle:(string_of_int Chow_sim.Sim.default_fuel) message)
      then
        fail "serve smoke: fuel %d refused without naming the bound: %s" fuel
          message
  | _ -> fail "serve smoke: fuel %d did not answer a protocol Error" fuel);
  (match request Protocol.Ping with
  | Protocol.Pong -> ()
  | _ -> fail "serve smoke: no Pong after the refused request");
  (* 3. malformed frame: bad version byte — expect a protocol Error reply,
     not a wedged or dead daemon *)
  Client.with_connection ~socket_path:sock (fun c ->
      Protocol.write_frame (Client.fd c) "\xff\x00garbage";
      match Protocol.recv_reply (Client.fd c) with
      | Some (Protocol.Error { kind = "protocol"; _ }) -> ()
      | Some _ -> fail "serve smoke: malformed frame got a non-protocol reply"
      | None -> fail "serve smoke: malformed frame got no reply"
      | exception e ->
          fail "serve smoke: malformed frame: %s" (Printexc.to_string e));
  (* 3b. old-protocol-version frame: a well-formed version-1 Ping must be
     rejected just as cleanly — old clients get a diagnostic, not
     garbage decoded under the wrong layout *)
  Client.with_connection ~socket_path:sock (fun c ->
      Protocol.write_frame (Client.fd c) "\x01\x00";
      match Protocol.recv_reply (Client.fd c) with
      | Some (Protocol.Error { kind = "protocol"; message }) ->
          if not (contains ~needle:"version" message) then
            fail
              "serve smoke: old-version frame rejected without naming the \
               version: %s"
              message
      | Some _ -> fail "serve smoke: old-version frame got a non-protocol reply"
      | None -> fail "serve smoke: old-version frame got no reply"
      | exception e ->
          fail "serve smoke: old-version frame: %s" (Printexc.to_string e));
  (* 4. the daemon's own books: exactly the two Done requests completed,
     one of them a cache hit, and both malformed frames on the books *)
  (match request Protocol.Stats with
  | Protocol.Stats_reply counters ->
      let check name want =
        let got = delta counters name in
        if got <> want then
          fail "serve smoke: stats report %s = %d, want %d" name got want
      in
      check "server.completed" 2;
      check "cache.hit" 1;
      check "cache.miss" 1;
      check "server.protocol_error" 2;
      check "server.busy" 0;
      (* the per-class histograms must account exactly the two run
         requests, split by phase *)
      let bucket_total prefix =
        List.fold_left
          (fun acc (name, v) ->
            if starts_with ~prefix name then acc + v else acc)
          0 counters
      in
      List.iter
        (fun part ->
          let n = bucket_total ("server.run." ^ part ^ ".le_") in
          if n <> 2 then
            fail "serve smoke: server.run.%s holds %d observations, want 2"
              part n)
        [ "queue_wait_us"; "service_us"; "reply_us" ]
  | _ -> fail "serve smoke: Stats request failed");
  (* 5. the flight recorder round-trips over the wire: the dump parses
     and still holds both requests' lifecycles *)
  (match request Protocol.Dump with
  | Protocol.Dump_reply json -> check_flight ~what:"Dump reply" json
  | _ -> fail "serve smoke: Dump request failed");
  (* 6. the log streams: both requests' done lines are on disk while the
     daemon still runs.  A worker logs [done] just after its reply goes
     out, so allow it a moment *)
  let streamed () =
    let text = if Sys.file_exists log_path then read_file log_path else "" in
    List.for_all
      (fun req ->
        List.exists
          (fun line ->
            match Json.parse line with
            | Ok obj ->
                Json.member "event" obj = Some (Json.Str "done")
                && Json.member "req" obj = Some (Json.Num (float_of_int req))
            | Error _ -> false)
          (String.split_on_char '\n' text))
      [ cold_id; warm_id ]
  in
  let deadline = Unix.gettimeofday () +. 10. in
  while (not (streamed ())) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.02
  done;
  if not (streamed ()) then
    fail
      "serve smoke: %s lacks a request's done line before shutdown (the log \
       does not stream)"
      log_path;
  (* 7. clean shutdown *)
  (match request Protocol.Shutdown with
  | Protocol.Bye -> ()
  | _ -> fail "serve smoke: Shutdown did not answer Bye");
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> server_done := true
  | _, Unix.WEXITED n -> fail "serve smoke: daemon exited %d, want 0" n
  | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
      fail "serve smoke: daemon killed/stopped by signal %d" n);
  (* 8. the protocol errors must have dumped the flight recorder to the
     postmortem file *)
  if not (Sys.file_exists flight_path) then
    fail "serve smoke: protocol error left no flight dump at %s" flight_path;
  check_flight ~what:flight_path (read_file flight_path);
  (* 9. the structured log: every line parses as a JSON object, every
     request-scoped line names one of the smoke's ids, and both requests
     reached their 'done' line *)
  check_serve_log log_path;
  print_endline
    "serve smoke: cold + warm + over-ceiling fuel + 2 malformed frames ok, \
     server.completed = 2, cache.hit = 1, flight dump round-trips, log \
     parses with matching request ids, clean shutdown"

(* ----- telemetry smoke ----- *)

let has_suffix ~suffix s =
  String.length s >= String.length suffix
  && String.sub s
       (String.length s - String.length suffix)
       (String.length suffix)
     = suffix

(** Families the daemon must expose on its OpenMetrics page, with the
    instrument each must be declared as. *)
let required_families =
  [
    ("server_accepted", "counter");
    ("server_completed", "counter");
    ("server_queue_depth", "gauge");
    ("server_workers_busy", "gauge");
    ("server_connections", "gauge");
    ("server_inflight", "gauge");
    ("gc_minor_words", "gauge");
    ("gc_heap_words", "gauge");
    ("cache_entries", "gauge");
    ("server_run_us", "histogram");
    ("server_queue_wait_us", "histogram");
  ]

(** OpenMetrics grammar: every non-comment line must be a sample of a
    family declared by a preceding [# TYPE] line, with the suffix shape
    its instrument requires ([_total] for counters, bare for gauges,
    [_bucket]/[_sum]/[_count] for histograms), metric names restricted
    to their legal alphabet, every consecutive [_bucket] series
    cumulative and closed by [le="+Inf"], and the page terminated by
    [# EOF].  The {!required_families} must all be present. *)
let check_openmetrics ~what page =
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' page)
  in
  (match List.rev lines with
  | "# EOF" :: _ -> ()
  | _ -> fail "%s: page does not end with # EOF" what);
  let types = Hashtbl.create 64 in
  (* the consecutive [_bucket] samples of one (family, labels-minus-le)
     series: (key, last cumulative count, +Inf seen) *)
  let run = ref None in
  let close_run () =
    (match !run with
    | Some (key, _, false) ->
        fail "%s: histogram series %s has no le=\"+Inf\" bucket" what key
    | _ -> ());
    run := None
  in
  List.iter
    (fun line ->
      if line = "# EOF" then close_run ()
      else if starts_with ~prefix:"# TYPE " line then begin
        close_run ();
        match String.split_on_char ' ' line with
        | [ "#"; "TYPE"; fam; ty ] ->
            if Hashtbl.mem types fam then
              fail "%s: family %s declared twice" what fam;
            if not (List.mem ty [ "counter"; "gauge"; "histogram" ]) then
              fail "%s: family %s has unknown type %s" what fam ty;
            Hashtbl.replace types fam ty
        | _ -> fail "%s: malformed TYPE line %S" what line
      end
      else if starts_with ~prefix:"#" line then
        fail "%s: unexpected comment %S" what line
      else begin
        let sp =
          match String.rindex_opt line ' ' with
          | Some i -> i
          | None -> fail "%s: sample line %S has no value" what line
        in
        let lhs = String.sub line 0 sp in
        let value = String.sub line (sp + 1) (String.length line - sp - 1) in
        (match float_of_string_opt value with
        | Some _ -> ()
        | None -> fail "%s: sample %S has a non-numeric value" what line);
        let name, labels =
          match String.index_opt lhs '{' with
          | None -> (lhs, "")
          | Some i ->
              if not (has_suffix ~suffix:"}" lhs) then
                fail "%s: unterminated label set in %S" what line;
              ( String.sub lhs 0 i,
                String.sub lhs (i + 1) (String.length lhs - i - 2) )
        in
        String.iter
          (fun c ->
            if
              not
                ((c >= 'a' && c <= 'z')
                || (c >= 'A' && c <= 'Z')
                || (c >= '0' && c <= '9')
                || c = '_' || c = ':')
            then
              fail "%s: illegal character %C in metric name %s" what c name)
          name;
        let family =
          if Hashtbl.mem types name then Some (name, `Bare)
          else
            List.find_map
              (fun (suf, tag) ->
                if has_suffix ~suffix:suf name then begin
                  let fam =
                    String.sub name 0
                      (String.length name - String.length suf)
                  in
                  if Hashtbl.mem types fam then Some (fam, tag) else None
                end
                else None)
              [
                ("_total", `Total);
                ("_bucket", `Bucket);
                ("_sum", `Sum);
                ("_count", `Count);
              ]
        in
        let fam, shape =
          match family with
          | Some r -> r
          | None -> fail "%s: sample %s has no preceding # TYPE" what name
        in
        (match (Hashtbl.find types fam, shape) with
        | "counter", `Total
        | "gauge", `Bare
        | "histogram", (`Bucket | `Sum | `Count) -> ()
        | ty, _ ->
            fail "%s: sample %s has the wrong shape for a %s family" what
              name ty);
        if shape = `Bucket then begin
          let parts = String.split_on_char ',' labels in
          let le =
            match
              List.find_opt (fun p -> starts_with ~prefix:"le=" p) parts
            with
            | Some le -> le
            | None -> fail "%s: bucket sample %S lacks an le label" what line
          in
          let others =
            List.filter (fun p -> not (starts_with ~prefix:"le=" p)) parts
          in
          let key = fam ^ "{" ^ String.concat "," others ^ "}" in
          let cum = float_of_string value in
          let is_inf = le = "le=\"+Inf\"" in
          match !run with
          | Some (k, last, inf_seen) when k = key ->
              if inf_seen then
                fail "%s: bucket after le=\"+Inf\" in %s" what key;
              if cum < last then
                fail "%s: non-cumulative bucket counts in %s" what key;
              run := Some (key, cum, is_inf)
          | _ ->
              close_run ();
              run := Some (key, cum, is_inf)
        end
        else close_run ()
      end)
    lines;
  List.iter
    (fun (fam, ty) ->
      match Hashtbl.find_opt types fam with
      | Some got when got = ty -> ()
      | Some got ->
          fail "%s: family %s declared as %s, want %s" what fam got ty
      | None -> fail "%s: required family %s missing" what fam)
    required_families

(** The on-disk time-series ring: at least [min_samples] JSON lines,
    each an object carrying a numeric [ts] and a non-empty [metrics]
    object, timestamps non-decreasing. *)
let check_telemetry_file ~min_samples path =
  if not (Sys.file_exists path) then
    fail "telemetry smoke: no time-series file at %s" path;
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' (read_file path))
  in
  if List.length lines < min_samples then
    fail "telemetry smoke: %s holds %d samples, want at least %d" path
      (List.length lines) min_samples;
  let last = ref neg_infinity in
  List.iteri
    (fun i line ->
      match Json.parse line with
      | Error msg ->
          fail "telemetry smoke: %s line %d does not parse: %s" path (i + 1)
            msg
      | Ok root ->
          (match Json.member "ts" root with
          | Some (Json.Num ts) ->
              if ts < !last then
                fail "telemetry smoke: %s timestamps go backwards at line %d"
                  path (i + 1);
              last := ts
          | _ ->
              fail "telemetry smoke: %s line %d lacks a numeric ts" path
                (i + 1));
          (match Json.member "metrics" root with
          | Some (Json.Obj (_ :: _)) -> ()
          | _ ->
              fail "telemetry smoke: %s line %d lacks a metrics object" path
                (i + 1)))
    lines

(** Boot a daemon with 100ms sampling, drive one compile through it,
    then validate the three telemetry surfaces: the OpenMetrics page
    (grammar + required families), the health probe through the real
    CLI (exit 0 and a leading "ready"), and the on-disk time-series
    (>= 2 samples, monotone timestamps) after a clean shutdown. *)
let check_telemetry_smoke pawnc src_path =
  let dir = temp_dir "chow88-telemetry" in
  let sock = Filename.concat dir "s.sock" in
  let telemetry = Filename.concat dir "telemetry.jsonl" in
  let pid =
    Unix.create_process pawnc
      [|
        pawnc;
        "serve";
        "--socket";
        sock;
        "--workers";
        "2";
        "--cache-dir";
        Filename.concat dir "cache";
        "--telemetry";
        telemetry;
        "--sample-interval";
        "0.1";
      |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let server_done = ref false in
  at_exit (fun () ->
      if not !server_done then (try Unix.kill pid Sys.sigkill with _ -> ()));
  if not (Client.wait_ready ~socket_path:sock ()) then
    fail "telemetry smoke: daemon did not answer Ping within 10s";
  let request req =
    Client.with_connection ~socket_path:sock (fun c -> Client.request c req)
  in
  (* some real work first, so the scraped histograms are non-trivial *)
  (match
     request
       (Protocol.Compile
          {
            id = 7;
            action = Protocol.Run;
            srcs = [ read_file src_path ];
            o3 = true;
            shrinkwrap = true;
            global_promo = false;
            alloc = "chow";
            fuel = None;
            priority = 0;
          })
   with
  | Protocol.Done _ -> ()
  | _ -> fail "telemetry smoke: compile request failed");
  (* let the 100ms sampler tick a few times past its startup sample *)
  Unix.sleepf 0.35;
  (match request Protocol.Metrics_text with
  | Protocol.Metrics_reply page ->
      check_openmetrics ~what:"OpenMetrics page" page
  | _ -> fail "telemetry smoke: Metrics_text request failed");
  (* the health probe through the real CLI: the exit code is the contract *)
  let code, out =
    run_capture [| pawnc; "request"; "health"; "--socket"; sock |]
  in
  if code <> 0 then
    fail "telemetry smoke: request health exited %d, want 0" code;
  if not (starts_with ~prefix:"ready" out) then
    fail "telemetry smoke: request health printed %S, want ready" out;
  (match request Protocol.Shutdown with
  | Protocol.Bye -> ()
  | _ -> fail "telemetry smoke: Shutdown did not answer Bye");
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> server_done := true
  | _, Unix.WEXITED n -> fail "telemetry smoke: daemon exited %d, want 0" n
  | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
      fail "telemetry smoke: daemon killed/stopped by signal %d" n);
  check_telemetry_file ~min_samples:2 telemetry;
  print_endline
    "telemetry smoke: OpenMetrics page valid with required families, health \
     ready (exit 0), time-series holds >= 2 monotone samples, clean shutdown"

let () =
  match Sys.argv with
  | [| _; "--bench-compare"; baseline; current |] ->
      check_bench_compare baseline current
  | [| _; "--serve-smoke"; pawnc; src |] -> check_serve_smoke pawnc src
  | [| _; "--telemetry-smoke"; pawnc; src |] -> check_telemetry_smoke pawnc src
  | [| _; "--pgo-smoke"; pawnc; src |] -> check_pgo_smoke pawnc src
  | [| _; "--alloc-smoke"; pawnc; src |] -> check_alloc_smoke pawnc src
  | [| _; "--trace-smoke"; pawnc; src |] -> check_trace_smoke pawnc src
  | argv when Array.length argv >= 4 && argv.(1) = "--cache-smoke" ->
      check_warm_cache_smoke argv.(2)
        (Array.to_list (Array.sub argv 3 (Array.length argv - 3)))
  | _ ->
      prerr_endline
        "usage: trace_check --trace-smoke PAWNC SRC.pawn\n\
        \       trace_check --cache-smoke PAWNC UNIT.pawn...\n\
        \       trace_check --bench-compare BASELINE.json CURRENT.json\n\
        \       trace_check --serve-smoke PAWNC SRC.pawn\n\
        \       trace_check --telemetry-smoke PAWNC SRC.pawn\n\
        \       trace_check --pgo-smoke PAWNC SRC.pawn\n\
        \       trace_check --alloc-smoke PAWNC SRC.pawn";
      exit 2
