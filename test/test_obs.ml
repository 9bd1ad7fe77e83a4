(** Observability suite: the Chrome trace writer (well-formed JSON, spans
    properly nested per timeline, the expected pipeline phases present),
    the metrics registry (disabled no-op, counter/gauge/histogram
    behaviour, both percentile semantics, [-j] determinism of the dump),
    the OpenMetrics exporter (golden page), the time-series sampler (ring
    rotation, sample shape), and the [--explain] report (golden output
    for a §2-style program). *)

module Event = Chow_obs.Event
module Metrics = Chow_obs.Metrics
module Export = Chow_obs.Export
module Sampler = Chow_obs.Sampler
module Json = Chow_obs.Json
module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Coloring = Chow_core.Coloring
module Sim = Chow_sim.Sim
module W = Chow_workloads.Workloads

let source_of name =
  match W.find name with
  | Some w -> w.W.source
  | None -> Alcotest.failf "unknown workload %s" name

(* ----- trace ----- *)

type span = { s_name : string; s_tid : float; s_ts : float; s_end : float }

let num name = function
  | Some (Json.Num f) -> f
  | _ -> Alcotest.failf "event field %s missing or not a number" name

let str name = function
  | Some (Json.Str s) -> s
  | _ -> Alcotest.failf "event field %s missing or not a string" name

(** Parse the trace JSON into its complete-event spans, failing the test on
    malformed JSON or events. *)
let spans_of_trace txt =
  match Json.parse txt with
  | Error msg -> Alcotest.failf "trace JSON does not parse: %s" msg
  | Ok (Json.Arr events) ->
      List.filter_map
        (fun ev ->
          let name = str "name" (Json.member "name" ev)
          and ts = num "ts" (Json.member "ts" ev)
          and tid = num "tid" (Json.member "tid" ev) in
          match str "ph" (Json.member "ph" ev) with
          | "X" ->
              let dur = num "dur" (Json.member "dur" ev) in
              if dur < 0. then Alcotest.failf "span %s has negative dur" name;
              Some { s_name = name; s_tid = tid; s_ts = ts; s_end = ts +. dur }
          | "C" -> None
          | ph -> Alcotest.failf "unexpected event phase %S" ph)
        events
  | Ok _ -> Alcotest.fail "trace JSON is not an array"

(** Spans on one timeline must nest: sorted by start (ties: longest first),
    each span either starts after the enclosing one ends or ends within
    it.  [eps] absorbs the microsecond rounding of the writer. *)
let check_nesting spans =
  let eps = 0.002 in
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let l = try Hashtbl.find by_tid s.s_tid with Not_found -> [] in
      Hashtbl.replace by_tid s.s_tid (s :: l))
    spans;
  Hashtbl.iter
    (fun _tid l ->
      let l =
        List.sort
          (fun a b ->
            match compare a.s_ts b.s_ts with
            | 0 -> compare b.s_end a.s_end
            | c -> c)
          l
      in
      let stack = ref [] in
      List.iter
        (fun s ->
          while
            match !stack with
            | top :: rest when top.s_end <= s.s_ts +. eps ->
                stack := rest;
                true
            | _ -> false
          do
            ()
          done;
          (match !stack with
          | top :: _ when s.s_end > top.s_end +. eps ->
              Alcotest.failf "span %s [%f,%f] overlaps %s [%f,%f]" s.s_name
                s.s_ts s.s_end top.s_name top.s_ts top.s_end
          | _ -> ());
          stack := s :: !stack)
        l)
    by_tid

(** A compile-and-run trace: well-formed, nested per timeline, every
    pipeline phase present, and the per-procedure spans carrying their
    wave tag. *)
let check_pipeline_trace txt =
  let spans = spans_of_trace txt in
  check_nesting spans;
  let names = List.map (fun s -> s.s_name) spans in
  List.iter
    (fun phase ->
      Alcotest.(check bool)
        (Printf.sprintf "phase %s present" phase)
        true (List.mem phase names))
    [
      "parse";
      "lower";
      "layout";
      "allocate";
      "allocate-unit";
      "wave";
      "liveness";
      "ranges";
      "interference";
      "color";
      "shrinkwrap";
      "emit";
      "link";
      "decode";
      "sim";
    ];
  Alcotest.(check bool)
    "a per-procedure alloc span exists" true
    (List.exists (fun s -> String.starts_with ~prefix:"alloc:" s.s_name) spans)

let test_trace_pipeline () =
  Event.reset ();
  Event.enable_trace ();
  let compiled =
    Pipeline.compile_source (Config.with_jobs 4 Config.o3_sw) (Pipeline.Src (source_of "nim"))
  in
  ignore (Sim.run (Pipeline.program compiled));
  Event.disable_trace ();
  let txt = Event.chrome_json () in
  Event.reset ();
  check_pipeline_trace txt

(* the same through [pawnc run --trace --stats]: the trace file passes
   the same checks, and the stats table carries the load-bearing
   counters *)
let test_cli_trace_and_stats () =
  Test_server.with_src "clitrace" Test_server.calls_src @@ fun dir src ->
  let trace = Filename.concat dir "trace.json" in
  let out =
    Test_server.run_pawnc dir
      [ "run"; src; "--O3"; "--stats"; "--trace"; trace ]
  in
  check_pipeline_trace (Test_server.read_file trace);
  List.iter
    (fun counter ->
      Alcotest.(check bool)
        (counter ^ " counted") true
        (Test_server.int_row ~prefix:(counter ^ " ") out > 0))
    [ "color.ranges"; "dataflow.worklist_pops"; "sim.cycles" ]

let test_trace_disabled_records_nothing () =
  Event.reset ();
  Event.span "should-not-appear" (fun () -> ());
  let txt = Event.chrome_json () in
  let spans = spans_of_trace txt in
  Alcotest.(check bool)
    "no span recorded while disabled" true
    (not (List.exists (fun s -> s.s_name = "should-not-appear") spans))

let test_trace_exception_closes_span () =
  Event.reset ();
  Event.enable_trace ();
  (try Event.span "raising" (fun () -> failwith "boom") with Failure _ -> ());
  Event.disable_trace ();
  let spans = spans_of_trace (Event.chrome_json ()) in
  Event.reset ();
  Alcotest.(check bool)
    "span recorded despite the exception" true
    (List.exists (fun s -> s.s_name = "raising") spans)

let test_trace_multi_domain_merge () =
  (* spans recorded on other domains must land in the merged trace, on
     timelines of their own.  (Pipeline traces can legitimately be
     single-tid — the pool's caller lane helps drain the queue and often
     wins every task — so this drives the worker domains directly.) *)
  Event.reset ();
  Event.enable_trace ();
  let names = [ "merge:a"; "merge:b"; "merge:c" ] in
  let domains =
    List.map
      (fun n -> Domain.spawn (fun () -> Event.span n (fun () -> ())))
      names
  in
  List.iter Domain.join domains;
  Event.span "merge:caller" (fun () -> ());
  Event.disable_trace ();
  let spans = spans_of_trace (Event.chrome_json ()) in
  Event.reset ();
  let find n = List.find_opt (fun s -> s.s_name = n) spans in
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "span %s merged" n)
        true
        (find n <> None))
    ("merge:caller" :: names);
  let tid n = match find n with Some s -> s.s_tid | None -> -1.0 in
  let worker_tids = List.sort_uniq compare (List.map tid names) in
  Alcotest.(check int)
    "worker spans on three distinct timelines" 3
    (List.length worker_tids);
  Alcotest.(check bool)
    "worker timelines differ from the caller's" true
    (not (List.mem (tid "merge:caller") worker_tids))

(* ----- metrics ----- *)

let test_metrics_disabled_noop () =
  Metrics.reset ();
  let c = Metrics.counter "test.noop" in
  Metrics.add c 7;
  Alcotest.(check (option int))
    "disabled add ignored" (Some 0)
    (List.assoc_opt "test.noop" (Metrics.dump ()))

let test_metrics_counter_and_histogram () =
  Metrics.reset ();
  Metrics.enable ();
  let c = Metrics.counter "test.counter" in
  Metrics.incr c;
  Metrics.add c 41;
  let h = Metrics.histogram "test.hist" in
  Metrics.observe h 1;
  Metrics.observe h 5;
  Metrics.observe h 5;
  Metrics.disable ();
  let dump = Metrics.dump () in
  Metrics.reset ();
  Alcotest.(check (option int))
    "counter total" (Some 42)
    (List.assoc_opt "test.counter" dump);
  Alcotest.(check (option int))
    "bucket le_1" (Some 1)
    (List.assoc_opt "test.hist.le_1" dump);
  Alcotest.(check (option int))
    "bucket le_8" (Some 2)
    (List.assoc_opt "test.hist.le_8" dump)

(** snapshot/diff: per-request deltas without resetting the global
    registry — the daemon attaches these to every reply, so the deltas
    must be exact for serialized work and must not disturb the running
    totals. *)
let test_metrics_snapshot_diff () =
  Metrics.reset ();
  Metrics.enable ();
  let a = Metrics.counter "test.diff.a" in
  let b = Metrics.counter "test.diff.b" in
  Metrics.add a 10;
  Metrics.add b 3;
  let before = Metrics.snapshot () in
  Metrics.add a 5;
  let fresh = Metrics.counter "test.diff.fresh" in
  Metrics.incr fresh;
  let delta = Metrics.diff before (Metrics.snapshot ()) in
  Metrics.disable ();
  Alcotest.(check (option int))
    "changed counter's delta" (Some 5)
    (List.assoc_opt "test.diff.a" delta);
  Alcotest.(check (option int))
    "counter born after the snapshot" (Some 1)
    (List.assoc_opt "test.diff.fresh" delta);
  Alcotest.(check (option int))
    "unchanged counter omitted" None
    (List.assoc_opt "test.diff.b" delta);
  (* the global totals are untouched by taking snapshots *)
  Alcotest.(check (option int))
    "registry keeps the running total" (Some 15)
    (List.assoc_opt "test.diff.a" (Metrics.dump ()));
  (* diffing a snapshot against itself is empty *)
  Alcotest.(check int)
    "self-diff empty" 0
    (List.length (Metrics.diff before before));
  Metrics.reset ()

(** A histogram registered AFTER a snapshot was taken must still show up
    in a diff against a later snapshot, as a delta from zero — the daemon
    registers per-request-class histograms lazily on the first request of
    each class, and a [Stats] poll taken before that first request must
    still diff cleanly. *)
let test_metrics_diff_late_histogram () =
  Metrics.reset ();
  Metrics.enable ();
  let before = Metrics.snapshot () in
  let h = Metrics.histogram "test.late.hist" in
  Metrics.observe h 3;
  Metrics.observe h 100;
  let delta = Metrics.diff before (Metrics.snapshot ()) in
  Metrics.disable ();
  Metrics.reset ();
  Alcotest.(check (option int))
    "late bucket le_4 counted from zero" (Some 1)
    (List.assoc_opt "test.late.hist.le_4" delta);
  Alcotest.(check (option int))
    "late bucket le_128 counted from zero" (Some 1)
    (List.assoc_opt "test.late.hist.le_128" delta)

let test_metrics_bucket_rows_and_percentile () =
  Metrics.reset ();
  Metrics.enable ();
  let h = Metrics.histogram "test.pct" in
  (* 90 fast observations and 10 slow ones: p50 lands in the fast bucket,
     p99 in the slow one *)
  for _ = 1 to 90 do
    Metrics.observe h 3
  done;
  for _ = 1 to 10 do
    Metrics.observe h 1000
  done;
  Metrics.observe (Metrics.histogram "test.pct_other") 7;
  let rows = Metrics.snapshot () in
  Metrics.disable ();
  Metrics.reset ();
  let buckets = Metrics.bucket_rows "test.pct" rows in
  (* power-of-2 bounds: 3 -> le_4, 1000 -> le_1024; the unrelated
     histogram (whose name extends the prefix) must not leak in *)
  Alcotest.(check (list (pair int int)))
    "buckets extracted in bound order"
    [ (4, 90); (1024, 10) ]
    buckets;
  Alcotest.(check int) "p50 in the fast bucket" 4 (Metrics.percentile buckets 50.);
  Alcotest.(check int) "p90 still fast" 4 (Metrics.percentile buckets 90.);
  Alcotest.(check int)
    "p99 in the slow bucket" 1024 (Metrics.percentile buckets 99.);
  Alcotest.(check int)
    "p100 = the maximum bound" 1024 (Metrics.percentile buckets 100.);
  Alcotest.(check int) "empty distribution is 0" 0 (Metrics.percentile [] 99.)

(** Histogram buckets must dump in ascending numeric threshold order —
    a plain string sort interleaves them (le_1, le_16, le_2, le_32...). *)
let test_metrics_bucket_order () =
  Metrics.reset ();
  Metrics.enable ();
  let h = Metrics.histogram "test.order" in
  List.iter (fun v -> Metrics.observe h v) [ 1; 2; 4; 16; 32; 4096 ];
  Metrics.disable ();
  let buckets =
    List.filter_map
      (fun (name, _) ->
        let prefix = "test.order.le_" in
        let pl = String.length prefix in
        if String.length name > pl && String.sub name 0 pl = prefix then
          int_of_string_opt (String.sub name pl (String.length name - pl))
        else None)
      (Metrics.dump ())
  in
  Metrics.reset ();
  Alcotest.(check (list int))
    "ascending thresholds" [ 1; 2; 4; 16; 32; 4096 ] buckets

(** Compile the same program at [-j1] and [-j4] with metrics armed: the
    dumps must be bit-identical (atomic adds commute; the allocation work
    itself is schedule-independent). *)
let test_metrics_parallel_deterministic () =
  let uopt = source_of "uopt" in
  let dump_with jobs =
    Metrics.reset ();
    Metrics.enable ();
    ignore (Pipeline.compile_source (Config.with_jobs jobs Config.o3_sw) (Pipeline.Src uopt));
    Metrics.disable ();
    let d = Metrics.dump () in
    Metrics.reset ();
    d
  in
  let d1 = dump_with 1 in
  let d4 = dump_with 4 in
  Alcotest.(check (list (pair string int))) "-j1 = -j4 metrics" d1 d4

let test_sim_metrics_match_outcome () =
  Metrics.reset ();
  Metrics.enable ();
  let compiled = Pipeline.compile_source Config.o3_sw (Pipeline.Src (source_of "nim")) in
  let o = Sim.run ~profile:true (Pipeline.program compiled) in
  Metrics.disable ();
  let dump = Metrics.dump () in
  Metrics.reset ();
  Alcotest.(check (option int))
    "sim.cycles counter" (Some o.Sim.cycles)
    (List.assoc_opt "sim.cycles" dump);
  Alcotest.(check (option int))
    "sim.calls counter" (Some o.Sim.calls)
    (List.assoc_opt "sim.calls" dump);
  (* per-procedure attribution surfaces under sim.proc_cycles/NAME *)
  List.iter
    (fun (name, c) ->
      Alcotest.(check (option int))
        ("sim.proc_cycles/" ^ name)
        (Some c)
        (List.assoc_opt ("sim.proc_cycles/" ^ name) dump))
    o.Sim.proc_cycles

(* ----- gauges ----- *)

let test_gauge_levels () =
  Metrics.reset ();
  Metrics.enable ();
  let g = Metrics.gauge "test.gauge" in
  Metrics.set g 5;
  Metrics.gauge_add g 3;
  Metrics.gauge_add g (-2);
  let dump = Metrics.dump () in
  let rows = Metrics.gauges () in
  Metrics.disable ();
  Metrics.reset ();
  Alcotest.(check (option int))
    "level after set/add/add" (Some 6)
    (List.assoc_opt "test.gauge" dump);
  Alcotest.(check (option int))
    "gauges () carries the same level" (Some 6)
    (List.assoc_opt "test.gauge" rows);
  (* disabled updates are ignored, like counters *)
  Metrics.set g 99;
  Metrics.gauge_add g 7;
  Alcotest.(check (option int))
    "disabled set/add ignored (reset left 0)" (Some 0)
    (List.assoc_opt "test.gauge" (Metrics.gauges ()))

(** The zero-overhead-when-disabled contract extends to gauges and the
    sampler's GC refresh: a disabled [set]/[gauge_add]/
    [refresh_gc_gauges] must allocate nothing — any per-call word would
    show up [iters]-fold in the minor-words delta. *)
let test_gauge_disabled_allocates_nothing () =
  Metrics.reset ();
  Metrics.disable ();
  let g = Metrics.gauge "test.gauge.noalloc" in
  let iters = 100_000 in
  let before = Gc.minor_words () in
  for i = 1 to iters do
    Metrics.set g i;
    Metrics.gauge_add g 1;
    Sampler.refresh_gc_gauges ()
  done;
  let allocated = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "disabled calls allocate nothing (saw %.0f words)"
       allocated)
    true
    (allocated < float_of_int iters /. 100.)

(** [gauge_add] commutes, so inc/dec traffic from 4 concurrent domains
    must land on the same final level — and the same dump bytes — as the
    serial equivalent, the property that makes gauge rows safe inside the
    [-j]-deterministic dump. *)
let test_gauge_multi_domain_deterministic () =
  let per_domain = 10_000 in
  let run domains =
    Metrics.reset ();
    Metrics.enable ();
    let g = Metrics.gauge "test.gauge.domains" in
    let work () =
      for _ = 1 to per_domain do
        Metrics.gauge_add g 3;
        Metrics.gauge_add g (-1)
      done
    in
    let ds = List.init domains (fun _ -> Domain.spawn work) in
    List.iter Domain.join ds;
    Metrics.disable ();
    let d = Metrics.dump () in
    Metrics.reset ();
    d
  in
  let d1 = run 1 and d4 = run 4 in
  Alcotest.(check (option int))
    "1-domain final level" (Some (2 * per_domain))
    (List.assoc_opt "test.gauge.domains" d1);
  Alcotest.(check (option int))
    "4-domain final level" (Some (8 * per_domain))
    (List.assoc_opt "test.gauge.domains" d4);
  let d4' = run 4 in
  Alcotest.(check (list (pair string int)))
    "4-domain dump bit-identical across runs" d4 d4'

let test_histogram_sum_row () =
  Metrics.reset ();
  Metrics.enable ();
  let h = Metrics.histogram "test.sum" in
  Metrics.observe h 1;
  Metrics.observe h 5;
  Metrics.observe h 5;
  let dump = Metrics.dump () in
  Metrics.disable ();
  Metrics.reset ();
  Alcotest.(check (option int))
    "exact sum of observations" (Some 11)
    (List.assoc_opt "test.sum.sum" dump);
  (* an observation-free histogram contributes no .sum row *)
  Metrics.enable ();
  ignore (Metrics.histogram "test.sum.empty");
  let dump = Metrics.dump () in
  Metrics.disable ();
  Metrics.reset ();
  Alcotest.(check (option int))
    "empty histogram has no sum row" None
    (List.assoc_opt "test.sum.empty.sum" dump)

(** Both percentile semantics, pinned on one distribution (90 at 3, 10
    at 1000 -> buckets [(4, 90); (1024, 10)]): the bucket-upper-bound
    form is integral and one-sided (the bench gates rely on that), the
    interpolated form is the smoother live-view variant. *)
let test_percentile_both_semantics () =
  let buckets = [ (4, 90); (1024, 10) ] in
  Alcotest.(check int)
    "bucket-ub p50" 4 (Metrics.percentile buckets 50.);
  Alcotest.(check int)
    "bucket-ub p99" 1024 (Metrics.percentile buckets 99.);
  let close name expected got =
    Alcotest.(check bool)
      (Printf.sprintf "%s = %.4f (got %.4f)" name expected got)
      true
      (Float.abs (expected -. got) < 1e-9)
  in
  (* rank 50 inside the first bucket: 0 + 50/90 * (4 - 0) *)
  close "interp p50" (50. /. 90. *. 4.) (Metrics.percentile_interp buckets 50.);
  (* rank 99, 9 observations into the slow bucket: 4 + 0.9 * (1024 - 4) *)
  close "interp p99" 922.0 (Metrics.percentile_interp buckets 99.);
  close "interp p100 = max bound" 1024. (Metrics.percentile_interp buckets 100.);
  close "interp empty = 0" 0. (Metrics.percentile_interp [] 99.)

(* ----- OpenMetrics export ----- *)

(** Golden page for a hand-built typed snapshot: dot-separated registry
    names sanitized into the OpenMetrics alphabet, [/item] suffixes
    turned into escaped [item] labels sharing one family (a labelled
    histogram's buckets carry the item before [le]), counters
    suffixed [_total], histogram buckets cumulative and closed by
    [le="+Inf"] with exact [_sum] and [_count], families sorted, page
    terminated by [# EOF]. *)
let test_export_golden () =
  let snap =
    {
      Metrics.t_counters = [ ("cache.hit", 3) ];
      t_gauges =
        [
          ("cache.entries/shard0", 2);
          ("cache.entries/shard1", 5);
          ("odd.name/a\"b\\c\nd", 7);
          ("q.depth", 1);
        ];
      t_histograms =
        [
          ("server.run_us", [ (4, 90); (1024, 10) ], 10360);
          ("server.wait_us/ping", [ (2, 3) ], 5);
        ];
    }
  in
  let expected =
    "# TYPE cache_entries gauge\n\
     cache_entries{item=\"shard0\"} 2\n\
     cache_entries{item=\"shard1\"} 5\n\
     # TYPE cache_hit counter\n\
     cache_hit_total 3\n\
     # TYPE odd_name gauge\n\
     odd_name{item=\"a\\\"b\\\\c\\nd\"} 7\n\
     # TYPE q_depth gauge\n\
     q_depth 1\n\
     # TYPE server_run_us histogram\n\
     server_run_us_bucket{le=\"4\"} 90\n\
     server_run_us_bucket{le=\"1024\"} 100\n\
     server_run_us_bucket{le=\"+Inf\"} 100\n\
     server_run_us_sum 10360\n\
     server_run_us_count 100\n\
     # TYPE server_wait_us histogram\n\
     server_wait_us_bucket{item=\"ping\",le=\"2\"} 3\n\
     server_wait_us_bucket{item=\"ping\",le=\"+Inf\"} 3\n\
     server_wait_us_sum{item=\"ping\"} 5\n\
     server_wait_us_count{item=\"ping\"} 3\n\
     # EOF\n"
  in
  Alcotest.(check string) "OpenMetrics page" expected (Export.render snap)

(* ----- sampler ----- *)

let read_lines path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

(** Drive the time-series ring synchronously through rotation: with
    [max_lines = 3] and 8 total samples (1 at start, 6 manual, 1 final at
    stop), the rotated half must hold exactly 3 lines and the live file
    the 2 newest, every line parsing as [{"ts":...,"metrics":{...}}] with
    non-decreasing timestamps across the pair. *)
let test_sampler_rotation () =
  let path = Filename.temp_file "chow88-sampler" ".jsonl" in
  Metrics.reset ();
  Metrics.enable ();
  let c = Metrics.counter "test.sampler.ticks" in
  (* a huge interval parks the background thread: every sample below is
     ours, so the line counts are exact *)
  let s = Sampler.start ~interval_s:3600. ~max_lines:3 ~path () in
  for _ = 1 to 6 do
    Metrics.incr c;
    Sampler.sample s
  done;
  Sampler.stop s;
  Metrics.disable ();
  Metrics.reset ();
  let rotated = read_lines (path ^ ".1") in
  let live = read_lines path in
  Alcotest.(check int) "rotated half holds max_lines" 3 (List.length rotated);
  Alcotest.(check int) "live file holds the newest 2" 2 (List.length live);
  let last_ts = ref neg_infinity in
  List.iter
    (fun line ->
      match Json.parse line with
      | Error msg -> Alcotest.failf "sample does not parse: %s" msg
      | Ok root ->
          (match Json.member "ts" root with
          | Some (Json.Num ts) ->
              Alcotest.(check bool)
                "timestamps non-decreasing" true (ts >= !last_ts);
              last_ts := ts
          | _ -> Alcotest.fail "sample lacks a numeric ts");
          (match Json.member "metrics" root with
          | Some (Json.Obj rows) ->
              Alcotest.(check bool)
                "metrics object non-empty" true
                (List.mem_assoc "test.sampler.ticks" rows)
          | _ -> Alcotest.fail "sample lacks a metrics object"))
    (rotated @ live);
  Sys.remove path;
  Sys.remove (path ^ ".1")

(* ----- explain ----- *)

(** A §2-shaped program: [leaf] is closed under -O3 and uses few registers,
    so [driver]'s locals that span the calls can stay in caller-saved
    registers its mask leaves free. *)
let explain_src =
  {|
proc leaf(x) {
  return x * 2 + 1;
}

proc driver(n) {
  var acc = 0;
  var i = 0;
  while (i < n) {
    acc = acc + leaf(i);
    i = i + 1;
  }
  return acc;
}

proc main() {
  print(driver(10));
}
|}

let explain_for proc =
  let buf = ref [] in
  ignore
    (Pipeline.compile_source ~explain:(proc, buf) Config.o3_sw
       (Pipeline.Src explain_src));
  Format.asprintf "%a" Coloring.pp_explanation !buf

let test_explain_golden () =
  let got = explain_for "driver" in
  let expected =
    {|%3 _: priority 20.0 (refs 20.0, span 1), spans 0 call sites
  caller-saved best $t0  score 20.0  (call penalty 0.0, entry penalty 0.0, arg bonus 0.0, arrival bonus 0.0)
  param        best $a0  score 20.0  (call penalty 0.0, entry penalty 0.0, arg bonus 0.0, arrival bonus 0.0)
  callee-saved best $s0  score 20.0  (call penalty 0.0, entry penalty 0.0, arg bonus 0.0, arrival bonus 0.0)
  => $t0
%4 _: priority 20.0 (refs 20.0, span 1), spans 0 call sites
  caller-saved best $t0  score 20.0  (call penalty 0.0, entry penalty 0.0, arg bonus 0.0, arrival bonus 0.0)
  param        best $a0  score 20.0  (call penalty 0.0, entry penalty 0.0, arg bonus 0.0, arrival bonus 0.0)
  callee-saved best $s0  score 20.0  (call penalty 0.0, entry penalty 0.0, arg bonus 0.0, arrival bonus 0.0)
  => $t0
%5 _: priority 20.0 (refs 20.0, span 1), spans 0 call sites
  caller-saved best $t0  score 20.0  (call penalty 0.0, entry penalty 0.0, arg bonus 0.0, arrival bonus 0.0)
  param        best $a0  score 20.0  (call penalty 0.0, entry penalty 0.0, arg bonus 0.0, arrival bonus 0.0)
  callee-saved best $s0  score 20.0  (call penalty 0.0, entry penalty 0.0, arg bonus 0.0, arrival bonus 0.0)
  => $t0
%2 i: priority 13.7 (refs 41.0, span 3), spans 1 call site
  caller-saved best $t1  score 41.0  (call penalty 0.0, entry penalty 0.0, arg bonus 0.0, arrival bonus 0.0)
  param        best $a0  score 41.0  (call penalty 0.0, entry penalty 0.0, arg bonus 0.0, arrival bonus 0.0)
  callee-saved best $s0  score 41.0  (call penalty 0.0, entry penalty 0.0, arg bonus 0.0, arrival bonus 0.0)
  => $t1
  mask of leaf frees {$t1, $t2, $t3, $t4, $t5, $t6, $t7, $t8, $t9, $t10, $a0, $a1, $a2, $a3} across its calls
%1 acc: priority 5.5 (refs 22.0, span 4), spans 1 call site
  caller-saved best $t2  score 22.0  (call penalty 0.0, entry penalty 0.0, arg bonus 0.0, arrival bonus 0.0)
  param        best $a0  score 22.0  (call penalty 0.0, entry penalty 0.0, arg bonus 0.0, arrival bonus 0.0)
  callee-saved best $s0  score 22.0  (call penalty 0.0, entry penalty 0.0, arg bonus 0.0, arrival bonus 0.0)
  => $t2
  mask of leaf frees {$t1, $t2, $t3, $t4, $t5, $t6, $t7, $t8, $t9, $t10, $a0, $a1, $a2, $a3} across its calls
%0 n (param): priority 3.3 (refs 10.0, span 3), spans 1 call site
  caller-saved best $t3  score 10.0  (call penalty 0.0, entry penalty 0.0, arg bonus 0.0, arrival bonus 0.0)
  param        best $a0  score 10.0  (call penalty 0.0, entry penalty 0.0, arg bonus 0.0, arrival bonus 0.0)
  callee-saved best $s0  score 10.0  (call penalty 0.0, entry penalty 0.0, arg bonus 0.0, arrival bonus 0.0)
  => $t3
  mask of leaf frees {$t1, $t2, $t3, $t4, $t5, $t6, $t7, $t8, $t9, $t10, $a0, $a1, $a2, $a3} across its calls
|}
  in
  Alcotest.(check string) "driver explanation" expected got

let test_explain_unknown_proc_empty () =
  let got = explain_for "nonexistent" in
  Alcotest.(check string)
    "unknown procedure yields the empty report"
    "no live ranges with references\n" got

let suite =
  ( "obs",
    [
      Alcotest.test_case "trace: pipeline spans well-formed and nested" `Quick
        test_trace_pipeline;
      Alcotest.test_case "cli: run --trace --stats" `Quick
        test_cli_trace_and_stats;
      Alcotest.test_case "trace: disabled records nothing" `Quick
        test_trace_disabled_records_nothing;
      Alcotest.test_case "trace: exception still closes span" `Quick
        test_trace_exception_closes_span;
      Alcotest.test_case "trace: spans from other domains are merged" `Quick
        test_trace_multi_domain_merge;
      Alcotest.test_case "metrics: disabled add is a no-op" `Quick
        test_metrics_disabled_noop;
      Alcotest.test_case "metrics: counter and histogram" `Quick
        test_metrics_counter_and_histogram;
      Alcotest.test_case "metrics: snapshot/diff per-request deltas" `Quick
        test_metrics_snapshot_diff;
      Alcotest.test_case "metrics: diff sees late-registered histograms"
        `Quick test_metrics_diff_late_histogram;
      Alcotest.test_case "metrics: bucket rows and percentile estimate"
        `Quick test_metrics_bucket_rows_and_percentile;
      Alcotest.test_case "metrics: numeric bucket order" `Quick
        test_metrics_bucket_order;
      Alcotest.test_case "metrics: -j1 and -j4 dumps identical" `Quick
        test_metrics_parallel_deterministic;
      Alcotest.test_case "metrics: sim counters match outcome" `Quick
        test_sim_metrics_match_outcome;
      Alcotest.test_case "gauges: set/add levels" `Quick test_gauge_levels;
      Alcotest.test_case "gauges: disabled path allocates nothing" `Quick
        test_gauge_disabled_allocates_nothing;
      Alcotest.test_case "gauges: 4-domain traffic deterministic" `Quick
        test_gauge_multi_domain_deterministic;
      Alcotest.test_case "metrics: histogram .sum row" `Quick
        test_histogram_sum_row;
      Alcotest.test_case "metrics: both percentile semantics pinned" `Quick
        test_percentile_both_semantics;
      Alcotest.test_case "export: OpenMetrics golden page" `Quick
        test_export_golden;
      Alcotest.test_case "sampler: ring rotation and sample shape" `Quick
        test_sampler_rotation;
      Alcotest.test_case "explain: golden report" `Quick test_explain_golden;
      Alcotest.test_case "explain: unknown procedure" `Quick
        test_explain_unknown_proc_empty;
    ] )
