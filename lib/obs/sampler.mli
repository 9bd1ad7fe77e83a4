(** Continuous telemetry: a background thread that snapshots the metrics
    registry every interval into a bounded on-disk time-series ring.

    The flight recorder (see {!Event}) answers "what were the last
    events before the trap"; the sampler answers "what did the daemon
    look like over the minutes before that" — queue depth, cache
    footprint, GC pressure, worker utilisation, sampled once per
    [interval_s] and appended as one JSON line
    [{"ts":<µs>,"metrics":{"name":value,...}}] to [path].

    The file is a rotation ring bounded by line count: once [max_lines]
    samples have been written, the file is renamed to [path ^ ".1"]
    (replacing any previous rotation) and a fresh file is started, so the
    pair holds between [max_lines] and [2 * max_lines] most-recent
    samples and disk use stays bounded forever.

    Each sample first runs the [on_sample] callback (the daemon uses it
    to refresh level gauges whose truth lives elsewhere — per-shard cache
    footprint, say), then refreshes the [gc.*] gauges from
    [Gc.quick_stat], then dumps.  Exceptions from the callback are
    swallowed: telemetry must never take the daemon down.

    The sampler follows the registry's zero-overhead discipline: it only
    exists when explicitly started, and {!refresh_gc_gauges} against a
    disabled registry is a single load-and-return that allocates
    nothing. *)

type t

(** Refresh the [gc.minor_words] / [gc.major_words] / [gc.heap_words] /
    [gc.compactions] gauges from [Gc.quick_stat].  Called by every
    {!sample}; the daemon also calls it when answering Stats or metrics
    requests so pull-based views are current even with no sampler
    running.  No-op (and allocation-free) while metrics are disabled. *)
val refresh_gc_gauges : unit -> unit

(** [start ~path ()] truncates [path], takes one immediate sample, and
    spawns the sampling thread.  [interval_s] defaults to 1s,
    [max_lines] to 10_000 (at the default interval: about 2.8 hours per
    ring half). *)
val start :
  ?interval_s:float ->
  ?max_lines:int ->
  ?on_sample:(unit -> unit) ->
  path:string ->
  unit ->
  t

(** Take one sample now, synchronously, from the calling thread.  The
    sampling thread uses it; tests drive rotation deterministically with
    it. *)
val sample : t -> unit

(** Stop the thread (joins it), take one final sample so shutdown state
    is on disk, and close the file.  Idempotent. *)
val stop : t -> unit
