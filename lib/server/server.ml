(** See server.mli for the architecture (admission / scheduling /
    execution stages). *)

module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Cache = Chow_compiler.Cache
module Machine = Chow_machine.Machine
module Allocator = Chow_core.Allocator
module Diag = Chow_frontend.Diag
module Link = Chow_codegen.Link
module Objfile = Chow_codegen.Objfile
module Sim = Chow_sim.Sim
module Profile = Chow_sim.Profile
module Event = Chow_obs.Event
module Metrics = Chow_obs.Metrics
module Context = Chow_obs.Context
module Export = Chow_obs.Export
module Sampler = Chow_obs.Sampler

let m_accepted = Metrics.counter "server.accepted"
let m_busy = Metrics.counter "server.busy"
let m_completed = Metrics.counter "server.completed"
let m_failed = Metrics.counter "server.failed"
let m_protocol_errors = Metrics.counter "server.protocol_error"
let h_queue_wait = Metrics.histogram "server.queue_wait_us"
let h_run = Metrics.histogram "server.run_us"

(* level gauges owned by the admission side; the scheduler publishes
   [server.queue_depth] / [server.workers_busy] itself and the sampler
   owns [gc.*] *)
let g_conns = Metrics.gauge "server.connections"
let g_inflight = Metrics.gauge "server.inflight"
let g_cache_entries = Metrics.gauge "cache.entries"
let g_cache_bytes = Metrics.gauge "cache.bytes"

let class_name = function
  | Protocol.Build -> "build"
  | Protocol.Run -> "run"
  | Protocol.Profile -> "profile"

(* Per-request-class histograms splitting where a request's latency went:
   admission queue, worker execution, reply write.  Registered on the
   first request of each class — {!Metrics.diff} treats late-registered
   names as delta-from-zero, so a [Stats] snapshot taken before the first
   [profile] request still diffs cleanly against one taken after. *)
let class_hist action part =
  Metrics.histogram (Printf.sprintf "server.%s.%s" (class_name action) part)

(** One client connection.  The fd is shared between the reader thread
    and any worker domains still holding reply closures for jobs
    submitted on it, so its lifetime is refcounted: [c_inflight] counts
    submitted-but-not-yet-replied jobs, [c_reader_done] is set when the
    reader thread exits, and the fd is closed exactly once, when both
    say the fd can have no further user.  Closing eagerly instead would
    let the kernel reuse the descriptor number for a later [accept], and
    a stale worker reply would then land in an unrelated client's
    stream.  [c_lock] guards the state AND serializes reply writes, so a
    frame is never interleaved with another. *)
type conn = {
  c_fd : Unix.file_descr;
  c_lock : Mutex.t;
  mutable c_closed : bool;
  mutable c_inflight : int;
  mutable c_reader_done : bool;
}

type t = {
  socket_path : string;
  listen_fd : Unix.file_descr;
  sched : Scheduler.t;
  cache : Cache.t option;
  (* per-shard footprint gauges, registered once at create so the 1 Hz
     refresh allocates no names *)
  cache_shard_gauges : (Metrics.gauge * Metrics.gauge) array;
  bound : int;
  flight_path : string option;
  stop : bool Atomic.t;
  mutable sampler : Sampler.t option;
  (* open client connections, so shutdown can unblock their reader
     threads; registered on accept, deregistered when the refcounted
     close runs, both under [conn_lock] *)
  conn_lock : Mutex.t;
  conns : (int, conn) Hashtbl.t;
  mutable conn_seq : int;
  mutable threads : Thread.t list;
}

(* a reply write to a peer that stopped reading fails after this long
   (EAGAIN out of the send) instead of parking a worker domain forever —
   and, transitively, instead of wedging shutdown's drain *)
let send_timeout_s = 10.

let conn_send conn reply =
  Mutex.protect conn.c_lock (fun () ->
      if conn.c_closed then
        raise (Unix.Unix_error (Unix.EBADF, "send_reply", ""));
      Protocol.send_reply conn.c_fd reply)

(** Close the fd iff nobody can touch it again; idempotent. *)
let conn_close_if_done t id conn =
  let close_now =
    Mutex.protect conn.c_lock (fun () ->
        if conn.c_reader_done && conn.c_inflight = 0 && not conn.c_closed
        then begin
          conn.c_closed <- true;
          (try Unix.close conn.c_fd with Unix.Unix_error _ -> ());
          true
        end
        else false)
  in
  if close_now then begin
    Mutex.protect t.conn_lock (fun () -> Hashtbl.remove t.conns id);
    Metrics.gauge_add g_conns (-1)
  end

let conn_job_ref conn =
  Mutex.protect conn.c_lock (fun () -> conn.c_inflight <- conn.c_inflight + 1);
  Metrics.gauge_add g_inflight 1

let conn_job_unref t id conn =
  Mutex.protect conn.c_lock (fun () ->
      conn.c_inflight <- conn.c_inflight - 1);
  Metrics.gauge_add g_inflight (-1);
  conn_close_if_done t id conn

(* Pull the level gauges whose truth lives outside the registry up to
   date: cache footprint from a directory scan, GC levels from
   [Gc.quick_stat].  Called before answering [Stats]/[Metrics_text] (so
   pull-based views are always current) and by the sampler before each
   time-series line. *)
let refresh_gauges t =
  (match t.cache with
  | None -> ()
  | Some c ->
      let st = Cache.stats c in
      Metrics.set g_cache_entries st.Cache.s_entries;
      Metrics.set g_cache_bytes st.Cache.s_bytes;
      Array.iteri
        (fun i (g_entries, g_bytes) ->
          Metrics.set g_entries st.Cache.s_shard_entries.(i);
          Metrics.set g_bytes st.Cache.s_shard_bytes.(i))
        t.cache_shard_gauges);
  Sampler.refresh_gc_gauges ()

(* Readiness: each check is answered from the connection thread with
   nothing but cheap probes — never by queueing work — so a wedged worker
   pool cannot wedge the probe that is supposed to detect it. *)
let health t =
  let depth = Scheduler.depth t.sched in
  let workers = Scheduler.workers_alive t.sched in
  let listener_up = not (Atomic.get t.stop) in
  let cache_ok, cache_detail =
    match t.cache with
    | None -> (true, "disabled")
    | Some c -> (
        let dir = Cache.dir c in
        match Unix.access dir [ Unix.W_OK ] with
        | () -> (true, dir)
        | exception Unix.Unix_error (e, _, _) ->
            (false, Printf.sprintf "%s: %s" dir (Unix.error_message e)))
  in
  let checks =
    [
      ( "listener",
        listener_up,
        if listener_up then t.socket_path else "shutting down" );
      ("workers", workers > 0, Printf.sprintf "%d alive" workers);
      ( "queue",
        depth < t.bound,
        Printf.sprintf "%d/%d waiting" depth t.bound );
      ("cache", cache_ok, cache_detail);
    ]
  in
  let ready = List.for_all (fun (_, ok, _) -> ok) checks in
  (ready, checks)

(* Postmortem dump: write the flight recorder's rings next to the socket
   when the daemon misbehaves (worker trap, protocol error).  Best-effort
   — a full disk must never take the server down with it. *)
let flight_dump ~path reason =
  match path with
  | None -> ()
  | Some path -> (
      Event.error "flight-dump"
        [ ("path", Event.Str path); ("reason", Event.Str reason) ];
      try
        let oc = open_out path in
        output_string oc (Event.flight_json ());
        close_out oc
      with Sys_error _ -> ())

(* ----- request execution ----- *)

let config_of ~o3 ~shrinkwrap ~alloc =
  {
    Config.name =
      Printf.sprintf "%s%s" (if o3 then "-O3" else "-O2")
        (if shrinkwrap then "+sw" else "");
    ipra = o3;
    shrinkwrap;
    machine = Machine.full;
    (* worker parallelism is across requests; within one it is sequential *)
    jobs = 1;
    alloc;
  }

let link_summary (compiled : Pipeline.compiled) =
  let prog = Pipeline.program compiled in
  Printf.sprintf "linked %d units: %d instructions, %d data words"
    (List.length (Pipeline.artifacts compiled))
    (Array.length prog.Chow_codegen.Asm.code)
    prog.Chow_codegen.Asm.data_size

(** Compile (and run / profile) one request; every failure mode crosses
    the wire as an [Error] reply, rendered once, here. *)
let exec ?cache ~action ~srcs ~o3 ~shrinkwrap ~global_promo ~alloc ~fuel () =
  let err kind fmt = Printf.ksprintf (fun m -> Protocol.Error { kind; message = m }) fmt in
  try
    let config = config_of ~o3 ~shrinkwrap ~alloc in
    match
      Pipeline.compile_result ~global_promo ?cache config (Pipeline.Srcs srcs)
    with
    | Error diag -> Protocol.Error { kind = "compile"; message = Diag.to_string diag }
    | Ok compiled -> (
        match action with
        | Protocol.Build ->
            Protocol.Done
              {
                text = link_summary compiled;
                counters = [];
                queue_wait_ns = 0;
                service_ns = 0;
              }
        | Protocol.Run ->
            let o = Pipeline.run ?fuel compiled in
            Protocol.Done
              {
                text =
                  String.concat "\n"
                    (List.map string_of_int o.Sim.output);
                counters = [];
                queue_wait_ns = 0;
                service_ns = 0;
              }
        | Protocol.Profile ->
            let r = Pipeline.profile_penalty ?fuel compiled in
            Protocol.Done
              {
                text =
                  Format.asprintf "%a" (Profile.pp_penalty_report ~limit:20) r;
                counters = [];
                queue_wait_ns = 0;
                service_ns = 0;
              })
  with
  | Sim.Runtime_error msg -> err "runtime" "%s" msg
  | Link.Undefined_procedure name -> err "link" "undefined procedure %s" name
  | Link.Error msg -> err "link" "%s" msg
  | Objfile.Corrupt msg -> err "artifact" "corrupt artifact: %s" msg
  | Invalid_argument msg -> err "link" "%s" msg
  | e -> err "internal" "%s" (Printexc.to_string e)

(* ----- the worker side of a request ----- *)

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

(** Runs on a worker domain: account the queue wait, execute under the
    request's ambient scope (so every span, log line and flight event the
    work emits carries the request id), attach the per-request metric
    deltas and server-side timings, reply on the requesting connection,
    and drain the event rings into any open sinks.  [send] is the connection's serialized writer; it raises
    if the peer vanished, which counts the request as failed, not
    completed. *)
let run_job t ~send ~req ~submit_ns ~submit_trace_ns ~action ~srcs ~o3
    ~shrinkwrap ~global_promo ~alloc ~fuel () =
  let wait_ns = max 0 (now_ns () - submit_ns) in
  Metrics.observe h_queue_wait (wait_ns / 1000);
  Metrics.observe (class_hist action "queue_wait_us") (wait_ns / 1000);
  if Event.trace_on () then
    Event.span_at ~ts_ns:submit_trace_ns ~dur_ns:wait_ns
      ~args:[ ("req", Event.Int req) ]
      "queue-wait";
  Event.mark ~req "exec-start";
  Context.set_request req;
  let before = Metrics.snapshot () in
  let t0 = now_ns () in
  let reply =
    Event.span "request"
      ~args:[ ("req", Event.Int req) ]
      (exec ?cache:t.cache ~action ~srcs ~o3 ~shrinkwrap ~global_promo ~alloc
         ~fuel)
  in
  let service_ns = now_ns () - t0 in
  Context.clear_request ();
  Metrics.observe h_run (service_ns / 1000);
  Metrics.observe (class_hist action "service_us") (service_ns / 1000);
  let reply =
    match reply with
    | Protocol.Done d ->
        Event.mark ~req "exec-done";
        Protocol.Done
          {
            d with
            counters = Metrics.diff before (Metrics.snapshot ());
            queue_wait_ns = wait_ns;
            service_ns;
          }
    | other ->
        if Event.flight_on () then
          Event.mark ~req
            ~detail:
              (match other with
              | Protocol.Error { kind; _ } -> kind
              | _ -> "")
            "exec-error";
        other
  in
  (* completed = executed and replied Done; an Error reply counts as
     failed.  Account BEFORE sending: a client that reads the reply and
     immediately asks for Stats must see itself counted.  A send to a
     vanished peer is reclassified after the fact — no live client can
     observe the window. *)
  (match reply with
  | Protocol.Done _ -> Metrics.incr m_completed
  | _ -> Metrics.incr m_failed);
  let t1 = now_ns () in
  (* the end of a request is a drain point: its log lines and spans reach
     their sinks now, not at shutdown *)
  Fun.protect ~finally:Event.drain @@ fun () ->
  match
    Event.span "reply" ~args:[ ("req", Event.Int req) ] (fun () -> send reply)
  with
  | () ->
      let reply_ns = now_ns () - t1 in
      Metrics.observe (class_hist action "reply_us") (reply_ns / 1000);
      Event.mark ~req "reply-sent";
      if Event.log_on Event.Info then
        Event.info ~req "done"
          [
            ("class", Event.Str (class_name action));
            ("ok",
             Event.Bool (match reply with Protocol.Done _ -> true | _ -> false));
            ("queue_wait_us", Event.Int (wait_ns / 1000));
            ("service_us", Event.Int (service_ns / 1000));
            ("reply_us", Event.Int (reply_ns / 1000));
          ]
  | exception _ -> (
      Event.mark ~req "reply-failed";
      if Event.log_on Event.Warn then
        Event.warn ~req "reply-failed"
          [ ("class", Event.Str (class_name action)) ];
      match reply with
      | Protocol.Done _ ->
          Metrics.add m_completed (-1);
          Metrics.incr m_failed
      | _ -> ())

(* ----- admission: one thread per connection ----- *)

let handle_connection t id conn =
  let send = conn_send conn in
  let rec loop () =
    match Protocol.recv_request conn.c_fd with
    | None -> ()
    | exception Protocol.Malformed msg ->
        Metrics.incr m_protocol_errors;
        if Event.log_on Event.Warn then
          Event.warn "protocol-error"
            [ ("conn", Event.Int id); ("message", Event.Str msg) ];
        if Event.flight_on () then
          Event.mark ~req:(-1) ~detail:msg "protocol-error";
        flight_dump ~path:t.flight_path "protocol-error";
        (* best-effort: the stream may already be gone *)
        (try send (Protocol.Error { kind = "protocol"; message = msg })
         with _ -> ());
        ()
    | exception Unix.Unix_error _ -> ()
    | Some Protocol.Ping ->
        send Protocol.Pong;
        loop ()
    | Some Protocol.Stats ->
        Event.debug "stats" [ ("conn", Event.Int id) ];
        refresh_gauges t;
        send (Protocol.Stats_reply (Metrics.snapshot ()));
        loop ()
    | Some Protocol.Health ->
        Event.debug "health" [ ("conn", Event.Int id) ];
        let ready, checks = health t in
        send (Protocol.Health_reply { ready; checks });
        loop ()
    | Some Protocol.Metrics_text ->
        Event.debug "metrics" [ ("conn", Event.Int id) ];
        refresh_gauges t;
        send (Protocol.Metrics_reply (Export.page ()));
        loop ()
    | Some Protocol.Dump ->
        Event.debug "dump" [ ("conn", Event.Int id) ];
        send (Protocol.Dump_reply (Event.flight_json ()));
        loop ()
    | Some Protocol.Shutdown ->
        Event.info "shutdown" [ ("conn", Event.Int id) ];
        send Protocol.Bye;
        Atomic.set t.stop true
        (* stop reading; the refcounted close runs when the reader's
           finally marks it done and any in-flight jobs have replied *)
    | Some
        (Protocol.Compile
           { id = req; action; srcs; o3; shrinkwrap; global_promo; alloc;
             fuel; priority }) ->
        if Event.log_on Event.Debug then
          Event.debug ~req "submit"
            [
              ("conn", Event.Int id);
              ("class", Event.Str (class_name action));
              ("units", Event.Int (List.length srcs));
              ("priority", Event.Int priority);
            ];
        Event.mark ~req ~detail:(class_name action) "submit";
        (* a request the daemon cannot or will not run is refused here,
           before it takes a queue slot or a worker *)
        let refuse message =
          (try send (Protocol.Error { kind = "protocol"; message })
           with _ -> ());
          loop ()
        in
        match (Allocator.of_string alloc, fuel) with
        | None, _ ->
            refuse (Printf.sprintf "unknown allocation strategy %S" alloc)
        | _, Some f when f < 0 || f > Sim.default_fuel ->
            refuse
              (Printf.sprintf "fuel %d outside [0, %d]" f Sim.default_fuel)
        | Some alloc, _ ->
        let submit_ns = now_ns () in
        let submit_trace_ns = Event.elapsed_ns () in
        let work =
          run_job t ~send ~req ~submit_ns ~submit_trace_ns ~action ~srcs ~o3
            ~shrinkwrap ~global_promo ~alloc ~fuel
        in
        (* the job holds a reference on the connection from submission
           until its reply is sent (or fails): the fd stays valid for the
           worker's send even if this reader exits first *)
        conn_job_ref conn;
        let job () =
          Fun.protect ~finally:(fun () -> conn_job_unref t id conn) work
        in
        (match Scheduler.submit t.sched ~priority job with
        | Scheduler.Accepted -> Metrics.incr m_accepted
        | Scheduler.Rejected ->
            conn_job_unref t id conn;
            Metrics.incr m_busy;
            if Event.log_on Event.Warn then
              Event.warn ~req "busy" [ ("conn", Event.Int id) ];
            Event.mark ~req "busy";
            (try send Protocol.Busy with _ -> ()));
        loop ()
  in
  (try loop () with _ -> ())

(* ----- lifecycle ----- *)

let create ?(workers = 4) ?(queue_bound = 64) ?cache_dir ?(cache_shards = 4)
    ?cache_max_entries ?flight_path ?telemetry_path ?(sample_interval = 1.0)
    ?(telemetry_max_lines = 10_000) ~socket_path () =
  if workers < 1 then invalid_arg "Server.create: workers must be >= 1";
  (* replies to vanished clients must fail with EPIPE, not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  Metrics.enable ();
  (* the flight recorder is cheap enough to leave armed for the daemon's
     whole lifetime — that is the point of it *)
  Event.enable_flight ();
  let cache =
    Option.map
      (fun dir ->
        Cache.create ?max_entries:cache_max_entries ~shards:cache_shards ~dir ())
      cache_dir
  in
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  Unix.bind listen_fd (Unix.ADDR_UNIX socket_path);
  Unix.listen listen_fd 64;
  (* a job that escapes [run_job]'s own error handling is a worker trap:
     the postmortem case the flight recorder exists for *)
  let on_error e =
    let msg = Printexc.to_string e in
    Event.error "worker-trap" [ ("exn", Event.Str msg) ];
    if Event.flight_on () then Event.mark ~req:(-1) ~detail:msg "worker-trap";
    flight_dump ~path:flight_path "worker-trap"
  in
  let cache_shard_gauges =
    match cache with
    | None -> [||]
    | Some c ->
        Array.init (Cache.shards c) (fun i ->
            ( Metrics.gauge (Printf.sprintf "cache.entries/shard%d" i),
              Metrics.gauge (Printf.sprintf "cache.bytes/shard%d" i) ))
  in
  let t =
    {
      socket_path;
      listen_fd;
      sched = Scheduler.create ~on_error ~workers ~queue_bound ();
      cache;
      cache_shard_gauges;
      bound = queue_bound;
      flight_path;
      stop = Atomic.make false;
      sampler = None;
      conn_lock = Mutex.create ();
      conns = Hashtbl.create 16;
      conn_seq = 0;
      threads = [];
    }
  in
  (match telemetry_path with
  | None -> ()
  | Some path ->
      t.sampler <-
        Some
          (Sampler.start ~interval_s:sample_interval
             ~max_lines:telemetry_max_lines
             ~on_sample:(fun () -> refresh_gauges t)
             ~path ()));
  t

let queue_bound t = t.bound
let request_stop t = Atomic.set t.stop true

let serve t =
  let accept_one () =
    (* wake up periodically to notice [stop] set by a connection thread,
       another thread, or a signal handler *)
    match Unix.select [ t.listen_fd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ :: _, _, _ ->
        let fd, _ = Unix.accept t.listen_fd in
        (* bound reply writes; see [send_timeout_s].  Best-effort: not
           every platform supports the option on unix sockets *)
        (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO send_timeout_s
         with Unix.Unix_error _ | Invalid_argument _ -> ());
        let conn =
          {
            c_fd = fd;
            c_lock = Mutex.create ();
            c_closed = false;
            c_inflight = 0;
            c_reader_done = false;
          }
        in
        let id =
          Mutex.protect t.conn_lock (fun () ->
              let id = t.conn_seq in
              t.conn_seq <- id + 1;
              Hashtbl.replace t.conns id conn;
              id)
        in
        Event.info "accept" [ ("conn", Event.Int id) ];
        Event.mark ~req:(-1) "accept";
        Metrics.gauge_add g_conns 1;
        let th =
          Thread.create
            (fun () ->
              Fun.protect
                ~finally:(fun () ->
                  Mutex.protect conn.c_lock (fun () ->
                      conn.c_reader_done <- true);
                  conn_close_if_done t id conn)
                (fun () -> handle_connection t id conn))
            ()
        in
        t.threads <- th :: t.threads
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  in
  while not (Atomic.get t.stop) do
    accept_one ()
  done;
  Event.info "drain" [];
  Event.mark ~req:(-1) "drain";
  (* 1. no new connections *)
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (* 2. unblock reader threads still parked in [recv_request] — receive
     side only, so replies already accepted can still be written out *)
  let open_conns =
    Mutex.protect t.conn_lock (fun () ->
        Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [])
  in
  List.iter
    (fun c ->
      Mutex.protect c.c_lock (fun () ->
          if not c.c_closed then
            try Unix.shutdown c.c_fd Unix.SHUTDOWN_RECEIVE
            with Unix.Unix_error _ -> ()))
    open_conns;
  (* 3. drain every accepted job; a send to a non-reading peer fails
     within [send_timeout_s], so the drain cannot wedge *)
  Scheduler.shutdown t.sched;
  (* 4. readers have no more frames and jobs have all replied, so every
     connection's refcounted close has run (or runs as its reader
     exits) *)
  List.iter Thread.join t.threads;
  t.threads <- [];
  (* belt-and-braces: nothing should remain, but never leak an fd *)
  Mutex.protect t.conn_lock (fun () ->
      Hashtbl.iter
        (fun _ c ->
          Mutex.protect c.c_lock (fun () ->
              if not c.c_closed then begin
                c.c_closed <- true;
                try Unix.close c.c_fd with Unix.Unix_error _ -> ()
              end))
        t.conns;
      Hashtbl.reset t.conns);
  (try Unix.unlink t.socket_path with Unix.Unix_error _ -> ());
  (* stop telemetry last: its final sample records the drained daemon *)
  (match t.sampler with
  | None -> ()
  | Some s ->
      refresh_gauges t;
      Sampler.stop s;
      t.sampler <- None);
  Event.info "stopped" [];
  Event.drain ()
