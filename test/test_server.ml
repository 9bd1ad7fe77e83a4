(** Compile-server tests: the framed wire protocol round-trips and
    rejects garbage without wedging; the bounded priority scheduler
    orders, rejects and drains as specified; and a full in-process daemon
    serves cold/warm/erroneous requests end-to-end, answering [Busy] —
    not blocking, not dying — when the admission queue is full. *)

module Protocol = Chow_server.Protocol
module Scheduler = Chow_server.Scheduler
module Server = Chow_server.Server
module Client = Chow_server.Client
module Cache = Chow_compiler.Cache
module Metrics = Chow_obs.Metrics
module Event = Chow_obs.Event
module Json = Chow_obs.Json

(* ----- scaffolding the suites share ----- *)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter
        (fun name -> remove_tree (Filename.concat path name))
        (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(** Run [f] on a fresh private directory under the system temp dir, and
    remove the directory with everything in it when [f] returns or
    raises. *)
let with_dir name f =
  let d = Filename.temp_file ("chow88-" ^ name) ".d" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  Fun.protect ~finally:(fun () -> remove_tree d) (fun () -> f d)

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* [dune runtest] runs the suites from the test directory, [dune exec]
   from the workspace root: find a binary of bin/ from either *)
let bin_exe name =
  let rel = Filename.concat "bin" (name ^ ".exe") in
  match
    List.find_opt Sys.file_exists
      [ Filename.concat ".." rel; Filename.concat "_build/default" rel ]
  with
  | Some p -> p
  | None -> Alcotest.failf "%s binary not built (dune deps?)" rel

(* ----- protocol ----- *)

let sample_requests =
  [
    Protocol.Ping;
    Protocol.Stats;
    Protocol.Shutdown;
    Protocol.Dump;
    Protocol.Health;
    Protocol.Metrics_text;
    Protocol.Compile
      {
        id = 1;
        action = Protocol.Build;
        srcs = [ "proc main() {}" ];
        o3 = true;
        shrinkwrap = false;
        global_promo = true;
        alloc = "chow";
        fuel = None;
        priority = 0;
      };
    Protocol.Compile
      {
        id = max_int;
        action = Protocol.Run;
        srcs = [ ""; "two\nunits"; String.make 10_000 'x' ];
        o3 = false;
        shrinkwrap = true;
        global_promo = false;
        alloc = "spill-all";
        fuel = Some 123_456_789;
        priority = -7;
      };
    Protocol.Compile
      {
        (* unscoped: negative ids must survive the zigzag round-trip *)
        id = -1;
        action = Protocol.Profile;
        srcs = [];
        o3 = true;
        shrinkwrap = true;
        global_promo = false;
        alloc = "linear";
        fuel = Some 0;
        priority = max_int;
      };
  ]

let sample_replies =
  [
    Protocol.Done
      { text = "linked"; counters = []; queue_wait_ns = 0; service_ns = 0 };
    Protocol.Done
      {
        text = String.make 5000 '\xff';
        counters = [ ("cache.hit", 2); ("sim.cycles", 144); ("neg", -3) ];
        queue_wait_ns = 12_345;
        service_ns = 987_654_321;
      };
    Protocol.Error { kind = "compile"; message = "3:1 parse error" };
    Protocol.Busy;
    Protocol.Pong;
    Protocol.Stats_reply [ ("server.completed", 12) ];
    Protocol.Bye;
    Protocol.Dump_reply "{\"capacity\":512,\"dropped\":0,\"events\":[]}";
    Protocol.Health_reply { ready = true; checks = [] };
    Protocol.Health_reply
      {
        ready = false;
        checks =
          [
            ("listener", true, "accepting");
            ("queue", false, "16/16 waiting");
            ("cache", true, "");
          ];
      };
    Protocol.Metrics_reply "# TYPE x counter\nx_total 1\n# EOF\n";
  ]

let test_protocol_roundtrip () =
  List.iter
    (fun req ->
      if Protocol.decode_request (Protocol.encode_request req) <> req then
        Alcotest.fail "request changed across encode/decode")
    sample_requests;
  List.iter
    (fun reply ->
      if Protocol.decode_reply (Protocol.encode_reply reply) <> reply then
        Alcotest.fail "reply changed across encode/decode")
    sample_replies

let expect_malformed what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Malformed" what
  | exception Protocol.Malformed _ -> ()

let test_protocol_rejects_garbage () =
  expect_malformed "empty payload" (fun () -> Protocol.decode_request "");
  expect_malformed "bad version" (fun () ->
      Protocol.decode_request "\xff\x00");
  expect_malformed "unknown tag" (fun () ->
      Protocol.decode_request "\x01\x63");
  expect_malformed "truncated fields" (fun () ->
      (* a Compile tag with no fields behind it *)
      Protocol.decode_request "\x01\x01");
  expect_malformed "negative length varint" (fun () ->
      (* Done reply whose text length has the sign bit set: 9-byte LEB128
         pattern for a "negative length" — must be rejected as Malformed,
         not escape as Invalid_argument from String.sub *)
      Protocol.decode_reply
        "\x01\x00\xff\xff\xff\xff\xff\xff\xff\xff\x7f");
  expect_malformed "string past payload" (fun () ->
      (* Done reply whose text claims 100 bytes but carries none *)
      Protocol.decode_reply "\x01\x00\x64");
  (* trailing garbage after a complete message is also a framing error *)
  expect_malformed "trailing garbage" (fun () ->
      Protocol.decode_request (Protocol.encode_request Protocol.Ping ^ "\x00"))

let test_frame_size_bound () =
  (* an over-long frame is refused before any allocation on the read
     side, and refused outright on the write side *)
  let fd_r, fd_w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close fd_r;
      Unix.close fd_w)
    (fun () ->
      expect_malformed "oversized write" (fun () ->
          Protocol.write_frame fd_w (String.make (Protocol.max_frame + 1) 'x'));
      (* hand-craft a header claiming a 2 GiB payload *)
      let header = Bytes.create 4 in
      Bytes.set header 0 '\x7f';
      Bytes.set header 1 '\xff';
      Bytes.set header 2 '\xff';
      Bytes.set header 3 '\xff';
      ignore (Unix.write fd_w header 0 4);
      expect_malformed "oversized read" (fun () -> Protocol.read_frame fd_r))

(* ----- scheduler ----- *)

(* park [sched]'s single worker behind a gate, WAITING until the worker
   has actually picked the blocker up — submissions racing the pickup
   would otherwise see one extra queue slot occupied *)
let park_worker sched =
  let gate = Mutex.create () and signal = Condition.create () in
  let opened = ref false and started = ref false in
  let blocker () =
    Mutex.protect gate (fun () ->
        started := true;
        Condition.broadcast signal;
        while not !opened do
          Condition.wait signal gate
        done)
  in
  let outcome = Scheduler.submit sched ~priority:0 blocker in
  Alcotest.(check bool) "blocker accepted" true (outcome = Scheduler.Accepted);
  Mutex.protect gate (fun () ->
      while not !started do
        Condition.wait signal gate
      done);
  fun () ->
    Mutex.protect gate (fun () ->
        opened := true;
        Condition.broadcast signal)

let test_scheduler_priority_order () =
  let sched = Scheduler.create ~workers:1 ~queue_bound:16 () in
  let order = Mutex.create () and ran = ref [] in
  let release = park_worker sched in
  List.iter
    (fun p ->
      let job () = Mutex.protect order (fun () -> ran := p :: !ran) in
      Alcotest.(check bool)
        "job accepted" true
        (Scheduler.submit sched ~priority:p job = Scheduler.Accepted))
    [ 0; 5; 1; 5; -3 ];
  release ();
  Scheduler.shutdown sched;
  (* higher priority first; the two 5s in submission order *)
  Alcotest.(check (list int))
    "drained highest-first" [ 5; 5; 1; 0; -3 ] (List.rev !ran)

let test_scheduler_bound_rejects () =
  let sched = Scheduler.create ~workers:1 ~queue_bound:2 () in
  let release = park_worker sched in
  (* the worker holds the blocker; exactly queue_bound more fit *)
  let outcomes =
    List.init 4 (fun _ -> Scheduler.submit sched ~priority:0 (fun () -> ()))
  in
  Alcotest.(check (list bool))
    "two queued, two rejected"
    [ true; true; false; false ]
    (List.map (fun o -> o = Scheduler.Accepted) outcomes);
  Alcotest.(check int) "pending counts the queue" 2 (Scheduler.pending sched);
  release ();
  Scheduler.shutdown sched;
  Alcotest.(check int) "drained" 0 (Scheduler.pending sched);
  (* after shutdown everything is rejected *)
  Alcotest.(check bool)
    "post-shutdown rejected" true
    (Scheduler.submit sched ~priority:9 (fun () -> ()) = Scheduler.Rejected)

(* ----- the daemon end-to-end, in process ----- *)

let with_server ?(workers = 2) ?(queue_bound = 16) name f =
  (* the registry and the flight rings are global and other suites leave
     residues; the daemon tests assert exact counter values and event
     sets, so start both from zero *)
  Metrics.reset ();
  Event.reset ();
  with_dir name @@ fun dir ->
  let socket_path = Filename.concat dir "s.sock" in
  let server =
    Server.create ~workers ~queue_bound
      ~cache_dir:(Filename.concat dir "cache")
      ~socket_path ()
  in
  let th = Thread.create Server.serve server in
  Fun.protect
    ~finally:(fun () ->
      Server.request_stop server;
      Thread.join th)
    (fun () ->
      Alcotest.(check bool)
        "server came up" true
        (Client.wait_ready ~socket_path ());
      f socket_path)

let compile_req ?(action = Protocol.Run) ?(priority = 0) ?(id = -1)
    ?(alloc = "chow") ?fuel srcs =
  Protocol.Compile
    {
      id;
      action;
      srcs;
      o3 = true;
      shrinkwrap = true;
      global_promo = false;
      alloc;
      fuel;
      priority;
    }

let good_src = "proc main() { print(6 * 7); }"

(* total observations across a histogram's buckets, as they appear in a
   [Stats] snapshot *)
let bucket_total prefix counters =
  List.fold_left
    (fun acc (name, v) ->
      let pl = String.length prefix in
      if String.length name > pl && String.sub name 0 pl = prefix then acc + v
      else acc)
    0 counters

let test_server_end_to_end () =
  let cold_id = 4242 in
  with_server "e2e" (fun socket_path ->
      Client.with_connection ~socket_path (fun c ->
          (* ping *)
          Alcotest.(check bool)
            "pong" true
            (Client.request c Protocol.Ping = Protocol.Pong);
          (* cold run: compiles, simulates, misses the cache — and the
             reply carries the server-side phase timings *)
          (match Client.request c (compile_req ~id:cold_id [ good_src ]) with
          | Protocol.Done { text; counters; queue_wait_ns; service_ns } ->
              Alcotest.(check string) "cold output" "42" text;
              Alcotest.(check int)
                "cold delta: one miss" 1
                (Option.value ~default:0 (List.assoc_opt "cache.miss" counters));
              Alcotest.(check bool)
                "queue wait is non-negative" true (queue_wait_ns >= 0);
              Alcotest.(check bool)
                "a compile took measurable service time" true (service_ns > 0)
          | _ -> Alcotest.fail "cold request failed");
          (* warm run: identical request served from the artifact cache *)
          (match Client.request c (compile_req [ good_src ]) with
          | Protocol.Done { counters; _ } ->
              Alcotest.(check int)
                "warm delta: one hit" 1
                (Option.value ~default:0 (List.assoc_opt "cache.hit" counters))
          | _ -> Alcotest.fail "warm request failed");
          (* a front-end error crosses the wire as a rendered Error *)
          (match Client.request c (compile_req [ "proc main( {}" ]) with
          | Protocol.Error { kind = "compile"; message } ->
              Alcotest.(check bool)
                "diag message mentions parse" true
                (let lower = String.lowercase_ascii message in
                 contains "parse" lower || contains "syntax" lower)
          | _ -> Alcotest.fail "bad source did not answer a compile Error");
          (* the books: 2 Done, 1 failed (the Error), 1 hit, 1 miss — and
             every executed request (the Error too) landed one observation
             in each of its class's phase histograms *)
          (match Client.request c Protocol.Stats with
          | Protocol.Stats_reply counters ->
              let v name =
                Option.value ~default:0 (List.assoc_opt name counters)
              in
              Alcotest.(check int) "completed" 2 (v "server.completed");
              Alcotest.(check int) "failed" 1 (v "server.failed");
              Alcotest.(check int) "hit" 1 (v "cache.hit");
              Alcotest.(check int) "accepted" 3 (v "server.accepted");
              Alcotest.(check int) "never busy" 0 (v "server.busy");
              List.iter
                (fun part ->
                  Alcotest.(check int)
                    (Printf.sprintf "three run-class %s observations" part)
                    3
                    (bucket_total
                       (Printf.sprintf "server.run.%s.le_" part)
                       counters))
                [ "queue_wait_us"; "service_us" ]
          | _ -> Alcotest.fail "Stats failed");
          (* reply_us is observed AFTER the reply is written, so the
             worker's last observation races this client's next frame —
             poll for it *)
          let deadline = Unix.gettimeofday () +. 10. in
          let rec wait_replies () =
            let total =
              match Client.request c Protocol.Stats with
              | Protocol.Stats_reply counters ->
                  bucket_total "server.run.reply_us.le_" counters
              | _ -> Alcotest.fail "Stats failed while polling reply_us"
            in
            if total <> 3 then
              if Unix.gettimeofday () > deadline then
                Alcotest.failf "reply_us observations stuck at %d" total
              else begin
                Unix.sleepf 0.02;
                wait_replies ()
              end
          in
          wait_replies ();
          (* the flight recorder saw the request lifecycle, tagged with the
             client-generated id, and [Dump] returns it over the wire *)
          match Client.request c Protocol.Dump with
          | Protocol.Dump_reply json -> (
              match Json.parse json with
              | Error msg -> Alcotest.failf "flight dump does not parse: %s" msg
              | Ok j ->
                  let events =
                    match Json.member "events" j with
                    | Some (Json.Arr evs) -> evs
                    | _ -> Alcotest.fail "flight dump has no events array"
                  in
                  let has name =
                    List.exists
                      (fun ev ->
                        (match Json.member "event" ev with
                        | Some (Json.Str s) -> s = name
                        | _ -> false)
                        &&
                        match Json.member "req" ev with
                        | Some (Json.Num f) -> int_of_float f = cold_id
                        | _ -> false)
                      events
                  in
                  List.iter
                    (fun name ->
                      Alcotest.(check bool)
                        (name ^ " recorded with the request id")
                        true (has name))
                    [ "submit"; "exec-start"; "exec-done"; "reply-sent" ])
          | _ -> Alcotest.fail "Dump failed"))

(* the daemon validates the request's allocation strategy by name: a
   known non-default strategy compiles and runs to the same output, an
   unknown name answers a protocol Error instead of touching a worker *)
let test_server_alloc_strategies () =
  with_server "alloc" (fun socket_path ->
      Client.with_connection ~socket_path (fun c ->
          (match Client.request c (compile_req ~alloc:"spill-all" [ good_src ]) with
          | Protocol.Done { text; _ } ->
              Alcotest.(check string) "spill-all output" "42" text
          | _ -> Alcotest.fail "spill-all request failed");
          (match Client.request c (compile_req ~alloc:"nonsense" [ good_src ]) with
          | Protocol.Error { kind = "protocol"; message } ->
              Alcotest.(check bool)
                "diagnostic names the strategy" true
                (contains "nonsense" message)
          | _ -> Alcotest.fail "unknown strategy did not answer a protocol Error");
          (* the daemon is still healthy afterwards *)
          match Client.request c (compile_req ~alloc:"linear" [ good_src ]) with
          | Protocol.Done { text; _ } ->
              Alcotest.(check string) "linear output" "42" text
          | _ -> Alcotest.fail "linear request failed"))

(* the daemon bounds a request's fuel by the engine default: a negative
   value or one above [Sim.default_fuel] answers a protocol Error naming
   the bound and never reaches the queue; both ends of the range run *)
let test_server_fuel_ceiling () =
  let bound = Chow_sim.Sim.default_fuel in
  with_server "fuel" (fun socket_path ->
      Client.with_connection ~socket_path (fun c ->
          List.iter
            (fun fuel ->
              match Client.request c (compile_req ~fuel [ good_src ]) with
              | Protocol.Error { kind = "protocol"; message } ->
                  Alcotest.(check bool)
                    (Printf.sprintf "fuel %d: diagnostic names the bound" fuel)
                    true
                    (contains (string_of_int bound) message)
              | _ ->
                  Alcotest.failf "fuel %d did not answer a protocol Error" fuel)
            [ -1; bound + 1; max_int ];
          (match Client.request c (compile_req ~fuel:bound [ good_src ]) with
          | Protocol.Done { text; _ } ->
              Alcotest.(check string) "fuel at the bound runs" "42" text
          | _ -> Alcotest.fail "fuel at the bound was not run");
          (match Client.request c (compile_req ~fuel:0 [ good_src ]) with
          | Protocol.Error { kind = "runtime"; message } ->
              Alcotest.(check bool)
                "fuel 0 runs out of fuel" true
                (contains "out of fuel" message)
          | _ -> Alcotest.fail "fuel 0 did not run out of fuel");
          match Client.request c Protocol.Stats with
          | Protocol.Stats_reply counters ->
              Alcotest.(check int)
                "only the two in-range requests were accepted" 2
                (Option.value ~default:0
                   (List.assoc_opt "server.accepted" counters))
          | _ -> Alcotest.fail "Stats failed"))

let test_server_busy_backpressure () =
  (* one worker, a queue of one: a burst of pipelined requests must get
     explicit Busy replies beyond the bound — and every frame gets SOME
     reply *)
  with_server ~workers:1 ~queue_bound:1 "busy" (fun socket_path ->
      Client.with_connection ~socket_path (fun c ->
          let burst = 16 in
          for _ = 1 to burst do
            Protocol.send_request (Client.fd c) (compile_req [ good_src ])
          done;
          let done_ = ref 0 and busy = ref 0 in
          for _ = 1 to burst do
            match Protocol.recv_reply (Client.fd c) with
            | Some (Protocol.Done _) -> incr done_
            | Some Protocol.Busy -> incr busy
            | Some _ -> Alcotest.fail "unexpected reply under load"
            | None -> Alcotest.fail "connection died under load"
          done;
          Alcotest.(check int) "every request answered" burst (!done_ + !busy);
          Alcotest.(check bool) "some requests ran" true (!done_ >= 1);
          Alcotest.(check bool)
            "overload answered Busy, not blocking" true (!busy >= 1)))

(* health: a fresh daemon is ready with every check passing; wedge the
   admission queue (one worker, bound 1, pinned by a run that never halts
   until its fuel runs out, then a pipelined burst keeping the queue at
   its bound) and the probe — answered from the connection thread, never
   through the queue — must report degraded naming the queue check; once
   the burst drains it is ready again *)
let test_server_health_probe () =
  with_server ~workers:1 ~queue_bound:1 "health" (fun socket_path ->
      let probe () =
        Client.with_connection ~socket_path (fun c ->
            match Client.request c Protocol.Health with
            | Protocol.Health_reply { ready; checks } -> (ready, checks)
            | _ -> Alcotest.fail "Health request failed")
      in
      let ready, checks = probe () in
      Alcotest.(check bool) "fresh daemon ready" true ready;
      Alcotest.(check bool)
        "all checks pass" true
        (List.for_all (fun (_, ok, _) -> ok) checks);
      List.iter
        (fun name ->
          Alcotest.(check bool)
            (name ^ " check present") true
            (List.exists (fun (n, _, _) -> n = name) checks))
        [ "listener"; "workers"; "queue"; "cache" ];
      let workers_busy () =
        Client.with_connection ~socket_path (fun c ->
            match Client.request c Protocol.Stats with
            | Protocol.Stats_reply rows ->
                Option.value ~default:0
                  (List.assoc_opt "server.workers_busy" rows)
            | _ -> Alcotest.fail "Stats request failed")
      in
      Client.with_connection ~socket_path (fun c ->
          let burst = 32 in
          (* pin the single worker for the whole burst, however fast the
             simulator is: the run loops forever, bounded by its fuel *)
          Protocol.send_request (Client.fd c)
            (compile_req ~fuel:300_000_000
               [ "proc main() { var x = 1; while (x == 1) { x = 1; } }" ]);
          let deadline = Unix.gettimeofday () +. 10. in
          while workers_busy () = 0 do
            if Unix.gettimeofday () > deadline then
              Alcotest.fail "the pinning run never started";
            Unix.sleepf 0.005
          done;
          (* distinct sources so every request compiles cold *)
          let src i =
            Printf.sprintf
              "proc main() { var i = 0; var acc = %d; while (i < 500) { acc \
               = acc + i * i; i = i + 1; } print(acc); }"
              i
          in
          for i = 1 to burst do
            Protocol.send_request (Client.fd c) (compile_req [ src i ])
          done;
          (* while the burst churns, poll the probe from fresh
             connections until it reports the degradation *)
          let deadline = Unix.gettimeofday () +. 10. in
          let rec poll_degraded () =
            let ready, checks = probe () in
            let queue_bad =
              List.exists (fun (n, ok, _) -> n = "queue" && not ok) checks
            in
            if (not ready) && queue_bad then ()
            else if Unix.gettimeofday () > deadline then
              Alcotest.fail "probe never saw the full queue"
            else poll_degraded ()
          in
          poll_degraded ();
          (* drain: every burst frame still gets SOME reply, and the
             pinning run ends out of fuel *)
          let out_of_fuel = ref 0 in
          for _ = 1 to burst + 1 do
            match Protocol.recv_reply (Client.fd c) with
            | Some (Protocol.Done _ | Protocol.Busy) -> ()
            | Some (Protocol.Error { kind = "runtime"; message })
              when contains "out of fuel" message ->
                incr out_of_fuel
            | Some _ -> Alcotest.fail "unexpected reply under load"
            | None -> Alcotest.fail "connection died under load"
          done;
          Alcotest.(check int) "the pinning run ran out of fuel" 1 !out_of_fuel);
      let ready, _ = probe () in
      Alcotest.(check bool) "ready again after drain" true ready)

(* the OpenMetrics page over the wire: a live daemon's scrape declares
   every family the daemon promises, each as its instrument (the level
   gauges and the request histograms alongside the counters), and
   terminates with # EOF; [Export]'s golden page pins the grammar *)
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

let test_server_metrics_scrape () =
  with_server "scrape" (fun socket_path ->
      Client.with_connection ~socket_path (fun c ->
          (match Client.request c (compile_req [ good_src ]) with
          | Protocol.Done _ -> ()
          | _ -> Alcotest.fail "compile request failed");
          match Client.request c Protocol.Metrics_text with
          | Protocol.Metrics_reply page ->
              List.iter
                (fun needle ->
                  Alcotest.(check bool)
                    (needle ^ " on the page") true (contains needle page))
                (List.map
                   (fun (fam, ty) -> Printf.sprintf "# TYPE %s %s\n" fam ty)
                   required_families
                @ [
                    "server_accepted_total 1";
                    "server_run_us_bucket{le=\"+Inf\"}";
                    "server_run_us_count 1";
                  ]);
              Alcotest.(check bool)
                "page ends with # EOF" true
                (String.ends_with ~suffix:"# EOF\n" page)
          | _ -> Alcotest.fail "Metrics_text request failed"))

let test_server_malformed_frame () =
  with_server "malformed" (fun socket_path ->
      Client.with_connection ~socket_path (fun c ->
          Protocol.write_frame (Client.fd c) "\xff\x00garbage";
          (match Protocol.recv_reply (Client.fd c) with
          | Some (Protocol.Error { kind = "protocol"; _ }) -> ()
          | _ -> Alcotest.fail "malformed frame: want a protocol Error"));
      (* an old-protocol client (version-1 Ping) is rejected with a clean
         Error naming the version mismatch, never decoded as garbage *)
      Client.with_connection ~socket_path (fun c ->
          Protocol.write_frame (Client.fd c) "\x01\x00";
          (match Protocol.recv_reply (Client.fd c) with
          | Some (Protocol.Error { kind = "protocol"; message }) ->
              Alcotest.(check bool)
                "rejection names the version" true
                (contains "version" message)
          | _ -> Alcotest.fail "old-version frame: want a protocol Error"));
      (* the daemon survives, serves the next connection, and has both
         frames on its books *)
      Client.with_connection ~socket_path (fun c ->
          Alcotest.(check bool)
            "daemon alive after garbage" true
            (Client.request c Protocol.Ping = Protocol.Pong);
          match Client.request c Protocol.Stats with
          | Protocol.Stats_reply counters ->
              Alcotest.(check (option int))
                "two protocol errors counted" (Some 2)
                (List.assoc_opt "server.protocol_error" counters)
          | _ -> Alcotest.fail "Stats failed"))

let test_server_client_vanishes () =
  (* regression for the fd lifetime: a client that submits a request and
     disconnects before the reply leaves its job in flight on a worker.
     The connection fd is refcounted, so the worker's send hits the
     still-open (peer-closed) socket and fails with EPIPE — it can never
     write into a recycled descriptor number — and the books count the
     request failed, never completed.  The job runs 10^8 cycles (a few
     hundred ms, under the default fuel): for its reply to beat the close
     and count the request completed, this process would have to stall
     between the send and the close for longer than the whole run *)
  with_server "vanish" (fun socket_path ->
      let slow_src =
        "proc main() { var i = 0; while (i < 25000000) { i = i + 1; } \
         print(i); }"
      in
      let c = Client.connect ~socket_path in
      Protocol.send_request (Client.fd c)
        (compile_req ~action:Protocol.Run [ slow_src ]);
      Client.close c;
      (* the daemon survives; poll Stats until the orphan is accounted *)
      let deadline = Unix.gettimeofday () +. 10. in
      let rec wait () =
        let counters =
          Client.with_connection ~socket_path (fun c ->
              match Client.request c Protocol.Stats with
              | Protocol.Stats_reply cs -> cs
              | _ -> Alcotest.fail "Stats failed after client vanished")
        in
        let v name = Option.value ~default:0 (List.assoc_opt name counters) in
        if v "server.completed" + v "server.failed" >= 1 then begin
          Alcotest.(check int)
            "orphaned request counted failed" 1 (v "server.failed");
          Alcotest.(check int)
            "not counted completed" 0 (v "server.completed")
        end
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "orphaned request never accounted"
        else begin
          Unix.sleepf 0.02;
          wait ()
        end
      in
      wait ())

let test_server_graceful_shutdown () =
  with_server "bye" (fun socket_path ->
      (match
         Client.with_connection ~socket_path (fun c ->
             Client.request c Protocol.Shutdown)
       with
      | Protocol.Bye -> ()
      | _ -> Alcotest.fail "Shutdown did not answer Bye");
      (* the listener goes away: within the timeout, connects fail *)
      let deadline = Unix.gettimeofday () +. 10. in
      let rec wait_down () =
        let up =
          match Client.connect ~socket_path with
          | c ->
              Client.close c;
              true
          | exception Unix.Unix_error _ -> false
        in
        if up then
          if Unix.gettimeofday () > deadline then
            Alcotest.fail "daemon still listening after Bye"
          else begin
            Thread.yield ();
            Unix.sleepf 0.05;
            wait_down ()
          end
      in
      wait_down ())

(* ----- flight recorder rings ----- *)

let test_flight_wraparound () =
  Event.reset ();
  Event.enable_flight ();
  let extra = 37 in
  for i = 1 to Event.capacity + extra do
    Event.mark ~req:i "wrap"
  done;
  let evs = Event.marks () in
  Alcotest.(check int)
    "live events = capacity" Event.capacity (List.length evs);
  Alcotest.(check int)
    "dropped counts the overwritten" extra (Event.dropped ());
  (* the survivors are exactly the newest [capacity] events, oldest
     first: the ring overwrote 1..extra and kept extra+1..capacity+extra
     in order *)
  let reqs = List.map (fun (_, r, _, _) -> r) evs in
  Alcotest.(check int) "oldest survivor" (extra + 1) (List.hd reqs);
  List.iteri
    (fun k r ->
      if r <> extra + 1 + k then
        Alcotest.failf "event %d: expected req %d, got %d" k (extra + 1 + k) r)
    reqs;
  Event.reset ();
  Alcotest.(check int) "reset empties the rings" 0 (List.length (Event.marks ()));
  Alcotest.(check int) "reset clears dropped" 0 (Event.dropped ())

let test_flight_concurrent_writers () =
  Event.reset ();
  Event.enable_flight ();
  let writers = 8 and per_writer = Event.capacity / 2 in
  let threads =
    List.init writers (fun w ->
        Thread.create
          (fun () ->
            for i = 1 to per_writer do
              Event.mark ~req:w ~detail:(string_of_int i) "concurrent"
            done)
          ())
  in
  List.iter Thread.join threads;
  (* sys-threads share domain 0's ring: every write landed, the newest
     [capacity] survive, the rest are accounted dropped — none lost *)
  let total = writers * per_writer in
  let live = List.length (Event.marks ()) in
  Alcotest.(check int)
    "live + dropped = total writes" total (live + Event.dropped ());
  Alcotest.(check int) "ring is full" Event.capacity live;
  (match Json.parse (Event.flight_json ()) with
  | Error msg -> Alcotest.failf "concurrent dump does not parse: %s" msg
  | Ok _ -> ());
  Event.reset ()

let test_flight_dump_during_write () =
  Event.reset ();
  Event.enable_flight ();
  let writing = Atomic.make true in
  let writer =
    Thread.create
      (fun () ->
        for i = 1 to 4 * Event.capacity do
          Event.mark ~req:i ~detail:"payload" "racing"
        done;
        Atomic.set writing false)
      ()
  in
  (* dump while the writer wraps the ring several times over: every dump
     must still be complete, parseable JSON with sane bookkeeping *)
  let dumps = ref 0 in
  while Atomic.get writing do
    (match Json.parse (Event.flight_json ()) with
    | Error msg -> Alcotest.failf "mid-write dump does not parse: %s" msg
    | Ok j ->
        (match (Json.member "capacity" j, Json.member "dropped" j) with
        | Some (Json.Num f), Some (Json.Num d)
          when int_of_float f = Event.capacity && d >= 0. ->
            ()
        | _ -> Alcotest.fail "dump lost its capacity or dropped field");
        (match Json.member "events" j with
        | Some (Json.Arr evs) ->
            List.iter
              (fun ev ->
                match (Json.member "ts" ev, Json.member "event" ev) with
                | Some (Json.Num _), Some (Json.Str _) -> ()
                | _ -> Alcotest.fail "dump event torn mid-write")
              evs
        | _ -> Alcotest.fail "dump lost its events array"));
    incr dumps;
    Thread.yield ()
  done;
  Thread.join writer;
  Alcotest.(check bool) "dumped at least once mid-write" true (!dumps >= 1);
  Event.reset ()

(* ----- the pawnc CLI ----- *)

(* [pawnc request] must exit 3 — distinct from the generic failure 2 — on
   [Busy], so callers (CI wrappers, retry loops) can tell backpressure
   from a broken request.  Driven against a fake daemon that answers
   every compile with [Busy]: the real admission queue can't be wedged
   deterministically from outside. *)
let test_request_busy_exits_3 () =
  let pawnc = bin_exe "pawnc" in
  with_dir "busy3" @@ fun dir ->
  let socket_path = Filename.concat dir "s.sock" in
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close listen_fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind listen_fd (Unix.ADDR_UNIX socket_path);
      Unix.listen listen_fd 1;
      let fake_daemon =
        Thread.create
          (fun () ->
            let fd, _ = Unix.accept listen_fd in
            (match Protocol.recv_request fd with
            | Some (Protocol.Compile _) -> Protocol.send_reply fd Protocol.Busy
            | _ -> ());
            Unix.close fd)
          ()
      in
      let src = Filename.concat dir "x.p" in
      write_file src good_src;
      let code =
        Sys.command
          (Printf.sprintf "%s request run %s --socket %s >/dev/null 2>&1"
             (Filename.quote pawnc) (Filename.quote src)
             (Filename.quote socket_path))
      in
      Thread.join fake_daemon;
      Alcotest.(check int) "Busy exits 3" 3 code)

(* Start [pawnc args] with stdout captured to [out] and stderr to [err]
   (silenced by default). *)
let spawn_pawnc ?(err = "/dev/null") ~out args =
  let pawnc = bin_exe "pawnc" in
  let open_w path =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let out_fd = open_w out and err_fd = open_w err in
  let pid =
    Unix.create_process pawnc
      (Array.of_list (pawnc :: args))
      Unix.stdin out_fd err_fd
  in
  Unix.close out_fd;
  Unix.close err_fd;
  pid

(* Wait for [pid]'s exit code, killing it after [timeout] seconds: a
   command that should fail at once but serves instead must not hang the
   suite. *)
let exit_code ?(timeout = 20.) pid =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.02;
        wait ()
    | 0, _ ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Alcotest.failf "pawnc still running after %.0fs" timeout
    | _, Unix.WEXITED n -> n
    | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) -> 128 + n
  in
  wait ()

(* Run [pawnc args] to completion, its stdout kept in [dir]: fail unless
   it exits [code] (default 0), else return the output. *)
let run_pawnc ?(code = 0) dir args =
  let out = Filename.concat dir "stdout" in
  Alcotest.(check int)
    (Printf.sprintf "pawnc %s exits %d" (List.hd args) code)
    code
    (exit_code (spawn_pawnc ~out args));
  read_file out

(* Run [f socket pid] against [pawnc serve --socket SOCKET args] started
   in [dir], once it answers; the daemon is killed afterwards unless [f]
   has reaped it. *)
let with_pawnc_serve dir args f =
  let sock = Filename.concat dir "s.sock" in
  let pid =
    spawn_pawnc ~out:(Filename.concat dir "serve.out")
      ("serve" :: "--socket" :: sock :: args)
  in
  Fun.protect
    ~finally:(fun () ->
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ())
    (fun () ->
      Alcotest.(check bool)
        "daemon answers" true
        (Client.wait_ready ~socket_path:sock ());
      f sock pid)

(* [with_dir], plus [src] written into it as a source file *)
let with_src name src f =
  with_dir name @@ fun dir ->
  let path = Filename.concat dir "src.pawn" in
  write_file path src;
  f dir path

(* a call tree deep enough for IPRA waves, shrink-wrapping, spill-home
   traffic under [--alloc spill-all] and call sites worth inlining *)
let calls_src =
  {|var total;
proc square(x) { return x * x; }
proc sum_squares(n) {
  var acc = 0; var i = 1;
  while (i <= n) { acc = acc + square(i); i = i + 1; }
  return acc;
}
proc main() {
  var k = 1;
  while (k <= 5) { total = total + sum_squares(k); k = k + 1; }
  print(total);
}|}

(* The rest of the first [prefix]-led line of a [--counters] or
   [--stats] dump, e.g. [row ~prefix:"calls:"] or
   [row ~prefix:"cache.hit "]. *)
let row ~prefix text =
  let pl = String.length prefix in
  match
    List.find_map
      (fun line ->
        let line = String.trim line in
        if String.starts_with ~prefix line then
          Some (String.trim (String.sub line pl (String.length line - pl)))
        else None)
      (String.split_on_char '\n' text)
  with
  | Some rest -> rest
  | None -> Alcotest.failf "no %S row in:\n%s" prefix text

let int_row ~prefix text = int_of_string (row ~prefix text)

(* save/restore memory operations from a [--counters] dump *)
let save_restore_ops text =
  Scanf.sscanf (row ~prefix:"save/restore:" text) "%d loads, %d stores" ( + )

(* the program's own output: the lines before [--counters]' header *)
let program_output text =
  let rec take = function
    | line :: rest when not (String.starts_with ~prefix:"--- " line) ->
        line :: take rest
    | _ -> []
  in
  take (String.split_on_char '\n' text)

(* [--trace] and [--log] open their files before any work, so an
   unwritable path is a named error and exit 2 up front — not a program
   that runs (or a daemon that serves) and then dies at exit *)
let test_unwritable_sink_exits_2 () =
  with_src "sink2" good_src @@ fun dir src ->
  let bad = Filename.concat dir "missing/out.json" in
  Alcotest.(check string)
    "run --trace UNWRITABLE fails before the program runs" ""
    (run_pawnc ~code:2 dir [ "run"; src; "--O3"; "--trace"; bad ]);
  let sock = Filename.concat dir "s.sock" in
  ignore (run_pawnc ~code:2 dir [ "serve"; "--socket"; sock; "--log"; bad ]);
  Alcotest.(check bool)
    "and fails before it listens" false (Sys.file_exists sock)

(* A numeric flag the libraries reject at zero or below is a CLI error:
   exit 2 with a stderr naming the flag, never an uncaught
   [Invalid_argument] *)
let test_bad_numeric_flags_exit_2 () =
  with_src "flags" calls_src @@ fun dir src ->
  let sock = Filename.concat dir "s.sock"
  and prof = Filename.concat dir "p.pwnp"
  and out = Filename.concat dir "stdout"
  and err = Filename.concat dir "stderr" in
  (* a valid profile, so only the budget can be wrong *)
  ignore (run_pawnc dir [ "profile"; src; "--O3"; "--emit"; prof ]);
  List.iter
    (fun (flag, args) ->
      let code = exit_code (spawn_pawnc ~err ~out args) in
      let msg = read_file err in
      Alcotest.(check int) (flag ^ " out of range: exit 2") 2 code;
      Alcotest.(check bool)
        (Printf.sprintf "stderr %S names %s" msg flag)
        true (contains flag msg))
    [
      ("--workers", [ "serve"; "--socket"; sock; "--workers"; "0" ]);
      ("--queue-bound", [ "serve"; "--socket"; sock; "--queue-bound"; "0" ]);
      ("--shards", [ "serve"; "--socket"; sock; "--shards=-3" ]);
      ( "--sample-interval",
        [ "serve"; "--socket"; sock; "--sample-interval"; "0" ] );
      ( "--telemetry-lines",
        [ "serve"; "--socket"; sock; "--telemetry-lines"; "0" ] );
      ( "--inline-budget",
        [ "run"; src; "--O3"; "--pgo"; prof; "--inline-budget"; "0" ] );
    ]

(* The log streams: a daemon killed with SIGKILL after serving requests
   has already written their lines, whole and in timestamp order, every
   request-scoped line naming the client's request id *)
let test_log_survives_kill_9 () =
  with_dir "kill9" @@ fun dir ->
  let log = Filename.concat dir "serve.log" in
  let ids = [ 601; 602; 603 ] in
  with_pawnc_serve dir
    [ "--workers"; "1"; "--log"; log; "--log-level"; "debug" ]
    (fun sock pid ->
      (* one worker runs jobs in submission order, so the third reply
         proves the first two finished — done line and drain included *)
      Client.with_connection ~socket_path:sock (fun c ->
          List.iter
            (fun id ->
              match Client.request c (compile_req ~id [ good_src ]) with
              | Protocol.Done _ -> ()
              | _ -> Alcotest.failf "request %d failed" id)
            ids);
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid));
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (read_file log))
  in
  let last_ts = ref neg_infinity and done_ids = ref [] in
  List.iter
    (fun line ->
      match Json.parse line with
      | Error msg -> Alcotest.failf "log line %S does not parse: %s" line msg
      | Ok j -> (
          (match Json.member "ts" j with
          | Some (Json.Num ts) ->
              if ts < !last_ts then
                Alcotest.failf "log ts decreases at %S" line;
              last_ts := ts
          | _ -> Alcotest.failf "log line %S has no ts" line);
          match (Json.member "event" j, Json.member "req" j) with
          | _, Some (Json.Num r) when not (List.mem (int_of_float r) ids) ->
              Alcotest.failf "log line %S names an unknown request" line
          | Some (Json.Str "done"), Some (Json.Num r) ->
              done_ids := int_of_float r :: !done_ids
          | _ -> ()))
    lines;
  List.iter
    (fun id ->
      Alcotest.(check bool)
        (Printf.sprintf "request %d's done line survived kill -9" id)
        true (List.mem id !done_ids))
    [ 601; 602 ]

(* The daemon's file sinks and probe through the real CLI: [--flight-dump]
   receives a postmortem dump when a malformed frame arrives, holding the
   earlier request's lifecycle; [request health] exits 0 printing ready;
   Shutdown ends the process with exit 0; and [--telemetry] has sampled
   the registry as JSON lines with monotone timestamps *)
let test_serve_sinks () =
  with_dir "sinks" @@ fun dir ->
  let flight = Filename.concat dir "flight.json"
  and telemetry = Filename.concat dir "telemetry.jsonl" in
  with_pawnc_serve dir
    [
      "--workers"; "1"; "--flight-dump"; flight; "--telemetry"; telemetry;
      "--sample-interval"; "0.1";
    ]
    (fun sock pid ->
      let request req =
        Client.with_connection ~socket_path:sock (fun c -> Client.request c req)
      in
      (match request (compile_req ~id:777 [ good_src ]) with
      | Protocol.Done _ -> ()
      | _ -> Alcotest.fail "compile request failed");
      Client.with_connection ~socket_path:sock (fun c ->
          Protocol.write_frame (Client.fd c) "\xff\x00garbage";
          ignore (Protocol.recv_reply (Client.fd c)));
      let out = run_pawnc dir [ "request"; "health"; "--socket"; sock ] in
      Alcotest.(check bool)
        (Printf.sprintf "health printed %S, want ready" out)
        true
        (String.starts_with ~prefix:"ready" out);
      Alcotest.(check bool)
        "Shutdown answers Bye" true
        (request Protocol.Shutdown = Protocol.Bye);
      Alcotest.(check int) "serve exits 0 after Shutdown" 0 (exit_code pid));
  let events =
    match Json.parse (read_file flight) with
    | Ok j -> (
        match Json.member "events" j with
        | Some (Json.Arr evs) -> evs
        | _ -> Alcotest.fail "flight dump has no events array")
    | Error msg -> Alcotest.failf "flight dump does not parse: %s" msg
  in
  let has ?req name =
    List.exists
      (fun ev ->
        Json.member "event" ev = Some (Json.Str name)
        && (req = None
           || Json.member "req" ev
              = Option.map (fun r -> Json.Num (float_of_int r)) req))
      events
  in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " of request 777 in the postmortem dump")
        true (has ~req:777 name))
    [ "submit"; "exec-start"; "exec-done" ];
  Alcotest.(check bool)
    "the dump records the protocol error" true (has "protocol-error");
  let samples =
    List.filter (fun l -> l <> "")
      (String.split_on_char '\n' (read_file telemetry))
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d telemetry samples, want >= 2" (List.length samples))
    true
    (List.length samples >= 2);
  ignore
    (List.fold_left
       (fun last line ->
         match Json.parse line with
         | Ok j -> (
             match (Json.member "ts" j, Json.member "metrics" j) with
             | Some (Json.Num ts), Some (Json.Obj (_ :: _)) ->
                 if ts < last then
                   Alcotest.failf "sample ts decreases: %s" line;
                 ts
             | _ -> Alcotest.failf "sample lacks ts or metrics: %s" line)
         | Error msg ->
             Alcotest.failf "sample does not parse (%s): %s" msg line)
       neg_infinity samples)

(* ----- shard routing ----- *)

let test_shard_routing () =
  with_dir "routing" @@ fun dir ->
  let cache = Cache.create ~shards:4 ~dir () in
  Alcotest.(check int) "shard count" 4 (Cache.shards cache);
  let keys =
    List.init 64 (fun i -> Digest.to_hex (Digest.string (string_of_int i)))
  in
  let seen = Hashtbl.create 4 in
  List.iter
    (fun k ->
      let idx = Cache.shard_index cache k in
      if idx < 0 || idx >= 4 then Alcotest.failf "index %d out of range" idx;
      if Cache.shard_index cache k <> idx then
        Alcotest.fail "routing not deterministic";
      Hashtbl.replace seen idx ())
    keys;
  Alcotest.(check int)
    "digest keys spread across all shards" 4 (Hashtbl.length seen);
  (* a 1-shard cache routes everything to 0 *)
  let flat = Cache.create ~dir () in
  List.iter
    (fun k ->
      Alcotest.(check int) "single shard" 0 (Cache.shard_index flat k))
    keys;
  (* more than 16 shards: routing reads two hex digits (256 prefixes),
     so every shard is reachable — no slice of the entry budget is
     stranded on a shard no key can route to *)
  let wide = Cache.create ~shards:32 ~dir () in
  Alcotest.(check int) "wide shard count" 32 (Cache.shards wide);
  let wide_seen = Hashtbl.create 32 in
  for i = 0 to 255 do
    let k = Printf.sprintf "%02x0123456789abcdef" i in
    let idx = Cache.shard_index wide k in
    if idx < 0 || idx >= 32 then Alcotest.failf "wide index %d out of range" idx;
    Hashtbl.replace wide_seen idx ()
  done;
  Alcotest.(check int)
    "all 32 shards reachable" 32 (Hashtbl.length wide_seen);
  (* beyond the 256 addressable prefixes the count clamps instead of
     silently shrinking effective capacity *)
  Alcotest.(check int)
    "shards clamp at 256" 256
    (Cache.shards (Cache.create ~shards:1000 ~dir ()))

let suite =
  ( "server",
    [
      Alcotest.test_case "protocol: round-trips bit-exact" `Quick
        test_protocol_roundtrip;
      Alcotest.test_case "protocol: garbage rejected as Malformed" `Quick
        test_protocol_rejects_garbage;
      Alcotest.test_case "protocol: frame size bounded" `Quick
        test_frame_size_bound;
      Alcotest.test_case "scheduler: drains highest priority first" `Quick
        test_scheduler_priority_order;
      Alcotest.test_case "scheduler: bounded queue rejects overload" `Quick
        test_scheduler_bound_rejects;
      Alcotest.test_case "daemon: cold/warm/error round-trip" `Quick
        test_server_end_to_end;
      Alcotest.test_case "daemon: overload answers Busy" `Quick
        test_server_busy_backpressure;
      Alcotest.test_case "daemon: health degraded on full queue" `Quick
        test_server_health_probe;
      Alcotest.test_case "daemon: OpenMetrics scrape over the wire" `Quick
        test_server_metrics_scrape;
      Alcotest.test_case "daemon: alloc strategy validated by name" `Quick
        test_server_alloc_strategies;
      Alcotest.test_case "daemon: fuel bounded by the engine default" `Quick
        test_server_fuel_ceiling;
      Alcotest.test_case "daemon: malformed frame contained" `Quick
        test_server_malformed_frame;
      Alcotest.test_case "daemon: vanished client counted failed" `Quick
        test_server_client_vanishes;
      Alcotest.test_case "daemon: graceful shutdown" `Quick
        test_server_graceful_shutdown;
      Alcotest.test_case "flight: ring wraparound keeps the newest" `Quick
        test_flight_wraparound;
      Alcotest.test_case "flight: concurrent writers lose nothing" `Quick
        test_flight_concurrent_writers;
      Alcotest.test_case "flight: dump while writing stays well-formed"
        `Quick test_flight_dump_during_write;
      Alcotest.test_case "client: Busy exits with code 3" `Quick
        test_request_busy_exits_3;
      Alcotest.test_case "cli: unwritable --trace/--log exit 2 up front"
        `Quick test_unwritable_sink_exits_2;
      Alcotest.test_case "cli: out-of-range numeric flags exit 2" `Quick
        test_bad_numeric_flags_exit_2;
      Alcotest.test_case "cli: serve flight dump, telemetry, health, exit 0"
        `Quick test_serve_sinks;
      Alcotest.test_case "daemon: streamed log survives kill -9" `Quick
        test_log_survives_kill_9;
      Alcotest.test_case "cache: shard routing deterministic and spread"
        `Quick test_shard_routing;
    ] )
