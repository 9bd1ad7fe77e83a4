(** Load generator for the compile-server daemon: thousands of mixed
    cold/warm requests at configurable concurrency against an in-process
    server, reporting client-observed p50/p99 latency and throughput per
    mix as [server/<mix>/{p50,p99,throughput}] rows for
    BENCH_timing.json.

    Mixes:
    - [cold]: every request compiles a never-seen unit — the full
      front-end + allocation + emission path, the cache only stores;
    - [warm]: requests draw from a pre-seeded working set of units — the
      cache-hit path (hash, artifact load, link);
    - [mixed]: 1 cold build in 8, the rest warm — the steady-state shape
      of a build service (an edited unit arriving amid cached ones);
    - [warm-shard1] vs [warm-shard4]: the same warm load against a
      1-shard and a 4-shard artifact cache at concurrency >= 4 — the pair
      that measures what sharding the cache lock buys (on a multi-core
      host the 4-shard server must sustain strictly higher throughput;
      the [server/meta/cores] row lets the regression gate skip that
      check on starved machines);
    - [warm-sampled]: the warm mix re-run with the continuous telemetry
      sampler armed at an aggressive 200ms interval (5x the production
      default) — the pair that measures what background sampling costs
      (the regression gate holds its p50 within 1.1x of the silent warm
      mix);
    - [warm-logged]: the warm mix re-run with the structured log
      streaming at info into a file in the run's temp directory — the
      pair that measures what [serve --log] costs (the
      regression gate holds its p50 within 2x of the silent warm mix).
      Both re-runs sit directly after [warm] so each pair shares machine
      conditions: mixes late in the sequence drift upward on a loaded
      host, and the budgets must gate telemetry, not position.

    Each mix also reports [server/<mix>/queue_wait_p99]: the p99 of the
    server-side [server.build.queue_wait_us] histogram over exactly that
    mix's requests, extracted by diffing [Stats] snapshots taken before
    and after the drive — the server's own account of admission-queue
    time, next to the client-observed round-trip latency.

    The client side is [concurrency] threads, each with its own
    connection and one request in flight, so reported latency includes
    queue wait — exactly what a caller of the daemon observes. *)

module Server = Chow_server.Server
module Client = Chow_server.Client
module Protocol = Chow_server.Protocol
module Metrics = Chow_obs.Metrics
module Event = Chow_obs.Event

(* a unit heavy enough that allocation dominates a cold compile and the
   artifact load is real work on the warm path; [salt] makes distinct
   sources (and so distinct cache keys) on demand.  Several procedures
   with deep loop nests and many simultaneously-live variables make the
   dataflow/coloring phases — exactly what the warm path skips — the
   bulk of a cold request. *)
let unit_src salt =
  let proc tag =
    Printf.sprintf
      {|
proc work_%s(a, b, c) {
  var acc = seed;
  var lo = a - b;
  var hi = a + b + c;
  var i = 0;
  while (i < a) {
    var j = 0;
    while (j < b) {
      var k = 0;
      while (k < c) {
        var mid = (lo + hi) / 2;
        if ((i + j + k) / 2 * 2 == i + j + k) { acc = acc + mid * k; }
        else { acc = acc - j + seed * mid; lo = lo + 1; }
        k = k + 1;
      }
      j = j + 1;
      hi = hi - 1;
    }
    i = i + 1;
  }
  return acc + lo + hi;
}
|}
      tag
  in
  Printf.sprintf
    {|
var seed = %d;
%s
proc main() {
  print(work_a(4, 3, 2) + work_b(3, 3, 3) + work_c(2, 4, 3)
        + work_d(3, 2, 4) + work_e(4, 2, 3) + work_f(2, 3, 4));
}
|}
    salt
    (String.concat "" (List.map proc [ "a"; "b"; "c"; "d"; "e"; "f" ]))

let build_req ?(id = -1) src =
  Protocol.Compile
    {
      id;
      action = Protocol.Build;
      srcs = [ src ];
      o3 = true;
      shrinkwrap = true;
      global_promo = false;
      alloc = "chow";
      fuel = None;
      priority = 0;
    }

(* ----- in-process server lifecycle ----- *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Unix.Unix_error _ -> ()

type running = {
  dir : string;
  sock : string;
  server : Server.t;
  thread : Thread.t;
}

let start ?(sampled = false) ~shards ~workers () =
  let dir = Filename.temp_file "chow88-serve-bench" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let sock = Filename.concat dir "s.sock" in
  let telemetry_path =
    if sampled then Some (Filename.concat dir "telemetry.jsonl") else None
  in
  let server =
    Server.create ~workers ~queue_bound:256
      ~cache_dir:(Filename.concat dir "cache")
      ~cache_shards:shards ?telemetry_path ~sample_interval:0.2
      ~socket_path:sock ()
  in
  let thread = Thread.create Server.serve server in
  if not (Client.wait_ready ~socket_path:sock ()) then
    failwith "serve bench: server did not come up";
  { dir; sock; server; thread }

let stop r =
  (match Client.with_connection ~socket_path:r.sock (fun c ->
       Client.request c Protocol.Shutdown)
   with
  | Protocol.Bye -> ()
  | _ -> prerr_endline "serve bench: unexpected shutdown reply"
  | exception _ -> Server.request_stop r.server);
  Thread.join r.thread;
  rm_rf r.dir

(* ----- the load generator ----- *)

type result = {
  p50_ns : float;
  p99_ns : float;
  throughput : int;
  queue_wait_p99_ns : float;
      (** server-side admission-queue p99 over this mix's requests *)
}

let percentile sorted q =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (float_of_int (n - 1) *. q)))

(** [drive ~sock ~concurrency ~total make_req] issues [total] requests
    from [concurrency] threads (one connection and one in-flight request
    each) and reports client-observed latency and aggregate throughput.
    Any reply other than [Done] fails the benchmark. *)
let drive ~sock ~concurrency ~total make_req =
  let latencies = Array.make total 0. in
  let next = Atomic.make 0 in
  let failures = Atomic.make 0 in
  let worker () =
    let c = Client.connect ~socket_path:sock in
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < total then begin
        let req = make_req i in
        let t0 = Unix.gettimeofday () in
        (match Client.request c req with
        | Protocol.Done _ -> latencies.(i) <- Unix.gettimeofday () -. t0
        | _ -> Atomic.incr failures
        | exception _ -> Atomic.incr failures);
        go ()
      end
    in
    go ();
    Client.close c
  in
  let t_start = Unix.gettimeofday () in
  let threads = List.init concurrency (fun _ -> Thread.create worker ()) in
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. t_start in
  if Atomic.get failures > 0 then
    failwith
      (Printf.sprintf "serve bench: %d requests failed" (Atomic.get failures));
  Array.sort compare latencies;
  ( percentile latencies 0.5 *. 1e9,
    percentile latencies 0.99 *. 1e9,
    int_of_float (float_of_int total /. elapsed) )

let seed_working_set ~sock srcs =
  Client.with_connection ~socket_path:sock (fun c ->
      List.iter
        (fun src ->
          match Client.request c (build_req src) with
          | Protocol.Done _ -> ()
          | _ -> failwith "serve bench: seeding the working set failed")
        srcs)

let working_set_size = 16

(* distinct salt spaces so cold requests can never collide with the warm
   working set *)
let warm_src i = unit_src (i mod working_set_size)
let cold_src i = unit_src (1_000_000 + i)

let stats_snapshot sock =
  Client.with_connection ~socket_path:sock (fun c ->
      match Client.request c Protocol.Stats with
      | Protocol.Stats_reply rows -> rows
      | _ -> failwith "serve bench: Stats request failed")

let run_mix ~name ~shards ~workers ~concurrency ~total ?(logged = false)
    ?(sampled = false) make_req ~seed =
  let r = start ~sampled ~shards ~workers () in
  Fun.protect
    ~finally:(fun () -> stop r)
    (fun () ->
      if seed then
        seed_working_set ~sock:r.sock
          (List.init working_set_size (fun i -> warm_src i));
      (* bracket the drive with Stats snapshots: their diff isolates this
         mix's own histogram deltas even though the in-process metrics
         registry is shared across mixes (and with the seeding above) *)
      let before = stats_snapshot r.sock in
      if logged then
        Event.enable_log ~sink:(Filename.concat r.dir "serve.log") Event.Info;
      let p50_ns, p99_ns, throughput =
        Fun.protect
          ~finally:(fun () ->
            if logged then begin
              Event.disable_log ();
              Event.reset ()
            end)
          (fun () -> drive ~sock:r.sock ~concurrency ~total make_req)
      in
      let after = stats_snapshot r.sock in
      let queue_wait =
        Metrics.bucket_rows "server.build.queue_wait_us"
          (Metrics.diff before after)
      in
      let queue_wait_p99_ns =
        float_of_int (Metrics.percentile queue_wait 99.) *. 1e3
      in
      let res = { p50_ns; p99_ns; throughput; queue_wait_p99_ns } in
      Format.printf
        "server/%-14s p50 %8.1f us  p99 %8.1f us  qwait99 %8.1f us  %6d \
         req/s@."
        name (res.p50_ns /. 1e3) (res.p99_ns /. 1e3)
        (res.queue_wait_p99_ns /. 1e3)
        res.throughput;
      res)

(** The benchmark: every mix, as [(name, ns)] latency rows plus
    [(name, value)] throughput/meta rows for {!Timing.write_json}. *)
let rows ~smoke () =
  let scale n = if smoke then max 1 (n / 8) else n in
  let workers = 4 and concurrency = 4 in
  let cold =
    run_mix ~name:"cold" ~shards:4 ~workers ~concurrency ~total:(scale 400)
      (fun i -> build_req ~id:i (cold_src i))
      ~seed:false
  in
  let warm =
    run_mix ~name:"warm" ~shards:4 ~workers ~concurrency ~total:(scale 2000)
      (fun i -> build_req ~id:i (warm_src i))
      ~seed:true
  in
  (* directly after [warm]: the 1.1x sampling budget compares these two,
     so they must not sit at opposite ends of the sequence where slow
     drift on a loaded host would masquerade as telemetry cost.  The
     sampler runs at an aggressive 200ms (5x the default rate) — if 5
     snapshots a second fit the budget, the default 1s surely does *)
  let sampled =
    run_mix ~name:"warm-sampled" ~shards:4 ~workers ~concurrency
      ~total:(scale 2000) ~sampled:true
      (fun i -> build_req ~id:i (warm_src i))
      ~seed:true
  in
  (* the 2x logging budget likewise compares warm-logged against warm *)
  let logged =
    run_mix ~name:"warm-logged" ~shards:4 ~workers ~concurrency
      ~total:(scale 2000) ~logged:true
      (fun i -> build_req ~id:i (warm_src i))
      ~seed:true
  in
  let mixed =
    run_mix ~name:"mixed" ~shards:4 ~workers ~concurrency ~total:(scale 1000)
      (fun i ->
        if i mod 8 = 0 then build_req ~id:i (cold_src i)
        else build_req ~id:i (warm_src i))
      ~seed:true
  in
  let shard1 =
    run_mix ~name:"warm-shard1" ~shards:1 ~workers ~concurrency
      ~total:(scale 800)
      (fun i -> build_req ~id:i (warm_src i))
      ~seed:true
  in
  let shard4 =
    run_mix ~name:"warm-shard4" ~shards:4 ~workers ~concurrency
      ~total:(scale 800)
      (fun i -> build_req ~id:i (warm_src i))
      ~seed:true
  in
  let mixes =
    [
      ("cold", cold);
      ("warm", warm);
      ("warm-sampled", sampled);
      ("warm-logged", logged);
      ("mixed", mixed);
      ("warm-shard1", shard1);
      ("warm-shard4", shard4);
    ]
  in
  let ns_rows =
    List.concat_map
      (fun (mix, r) ->
        [
          (Printf.sprintf "server/%s/p50" mix, r.p50_ns);
          (Printf.sprintf "server/%s/p99" mix, r.p99_ns);
          (Printf.sprintf "server/%s/queue_wait_p99" mix, r.queue_wait_p99_ns);
        ])
      mixes
  in
  let value_rows =
    ("server/meta/cores", Domain.recommended_domain_count ())
    :: List.map
         (fun (mix, r) ->
           (Printf.sprintf "server/%s/throughput" mix, r.throughput))
         mixes
  in
  (ns_rows, value_rows)
