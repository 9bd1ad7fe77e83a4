(** The [pawnc serve] daemon: a long-lived compile server over a unix
    socket.

    The request path is three decoupled, independently measurable stages:

    - {b admission} — one lightweight thread per connection reads
      {!Protocol} frames and either answers directly (ping, stats,
      shutdown, malformed-frame errors) or submits compile jobs;
    - {b scheduling} — a {!Scheduler}: bounded priority queue; a full
      queue answers [Busy] immediately, so overload produces explicit
      backpressure instead of unbounded memory growth;
    - {b execution} — worker domains compile against the shared
      {!Chow_compiler.Cache} (sharded, so concurrent warm requests don't
      serialize on one lock) and write the reply straight to the
      requesting connection.

    Observability: the metrics registry is enabled for the daemon's
    lifetime ([server.accepted] / [server.busy] / [server.completed] /
    [server.failed] counters, [server.queue_wait_us] / [server.run_us]
    histograms, per-request-class [server.<build|run|profile>.<queue_wait
    |service|reply>_us] histograms splitting where each class's latency
    went, plus the cache and pipeline counters the work itself
    publishes); when tracing is enabled each request contributes
    queue-wait, request and reply spans tagged with the client-generated
    request id, and when logging is enabled the accept / submit /
    busy / done / protocol-error / shutdown path emits structured lines
    carrying the same id.  All of them are {!Chow_obs.Event}s: the end of
    each request drains the rings into the [--trace] / [--log] files, so
    a killed daemon has already written every finished request.  A [Stats] request returns the registry
    snapshot over the wire; [Done] replies carry their own queue-wait and
    service times, so a client can reconstruct the server-side phases of
    its request on its own timeline.

    Continuous telemetry: the daemon also publishes {e level} gauges —
    [server.queue_depth] and [server.workers_busy] (maintained by the
    scheduler under its lock), [server.connections] and
    [server.inflight] (maintained by the admission side), the cache
    footprint as [cache.entries] / [cache.bytes] with per-shard
    [/shardN] series, and the [gc.minor_words] / [gc.major_words] /
    [gc.heap_words] / [gc.compactions] runtime levels.  Footprint and GC
    gauges are refreshed before answering [Stats] or [Metrics_text], so
    pull-based views are current even without a sampler.  A
    [Metrics_text] request returns the {!Chow_obs.Export} OpenMetrics
    page; a [Health] request answers the readiness checks (listener up,
    workers alive, queue below bound, cache dir writable) directly from
    the connection thread, never through the queue.  When
    [telemetry_path] is set, a {!Chow_obs.Sampler} thread snapshots the
    registry every [sample_interval] seconds into a bounded JSON-lines
    time-series ring, stopped (with one final post-drain sample) as the
    last step of shutdown.

    The {!Chow_obs.Event} flight recorder is armed for the daemon's lifetime:
    request lifecycle steps (submit / exec-start / exec-done / reply-sent
    and their failure variants), accepts and protocol errors land in the
    per-domain rings.  A [Dump] request returns the rings as JSON; a
    worker trap or protocol error also dumps them to [flight_path] when
    one was configured — the postmortem story for a misbehaving daemon.

    Connection lifetime: a connection's fd is shared between its reader
    thread and any workers still holding reply closures, so it is
    refcounted and closed only once both are done — a descriptor number
    is never recycled while a stale reply could still be written to it.
    Reply writes carry a send timeout, so a peer that stops reading
    fails its own replies instead of parking a worker domain forever.

    Shutdown: a [Shutdown] request (or {!request_stop}) stops admission,
    unblocks readers (receive-side shutdown), drains every accepted job
    — pending replies still go out, bounded by the send timeout — then
    joins threads, closes connections and returns from {!serve}. *)

type t

(** [create ?workers ?queue_bound ?cache_dir ?cache_shards
    ?cache_max_entries ?flight_path ?telemetry_path ?sample_interval
    ?telemetry_max_lines ~socket_path ()] binds and listens on
    [socket_path] (an existing socket file is replaced).  Defaults:
    4 workers, queue bound 64, no cache (every request compiles cold),
    4 shards, no postmortem dump file, no time-series sampler.
    [flight_path] is where the flight-recorder rings are written (as
    JSON) when a worker traps or a malformed frame arrives.
    [telemetry_path] arms the continuous sampler: one JSON line per
    [sample_interval] seconds (default 1s), rotated after
    [telemetry_max_lines] lines (default 10_000).  The compile
    configuration is per-request; worker parallelism is across requests,
    so each request compiles with [jobs = 1]. *)
val create :
  ?workers:int ->
  ?queue_bound:int ->
  ?cache_dir:string ->
  ?cache_shards:int ->
  ?cache_max_entries:int ->
  ?flight_path:string ->
  ?telemetry_path:string ->
  ?sample_interval:float ->
  ?telemetry_max_lines:int ->
  socket_path:string ->
  unit ->
  t

(** The admission queue bound the server was created with. *)
val queue_bound : t -> int

(** [serve t] runs the accept loop until a [Shutdown] request arrives or
    {!request_stop} is called, then drains and cleans up (joins workers
    and connection threads, unlinks the socket).  Blocking; run it on a
    dedicated thread to serve in-process. *)
val serve : t -> unit

(** Ask a serving [t] to stop from another thread (or a signal handler);
    returns immediately. *)
val request_stop : t -> unit
