(** The compile server's wire protocol: length-prefixed frames over a
    stream socket, carrying one {!request} or {!reply} each.

    Framing: every message is a 4-byte big-endian payload length followed
    by the payload; the payload opens with a protocol version byte and a
    message tag, then the fields in the {!Chow_support.Wire} encoding the
    artifact formats use too (varints, zigzag ints, length-prefixed
    strings, counted lists).  A
    frame longer than {!max_frame} is rejected before any allocation
    proportional to its claimed size, so a malicious or corrupt length
    word can never balloon the daemon's memory.

    Robustness: every decoding failure — truncated frame, oversized
    length, unknown version, unknown tag, fields running past the payload
    — raises {!Malformed} (the same exception as
    {!Chow_support.Wire.Corrupt}) with a diagnostic.  The server answers a
    malformed frame with an [Error] reply of kind ["protocol"] and closes
    the connection; it never crashes and never interprets garbage.

    Errors cross the wire as a rendered kind/message pair (the
    {!Chow_frontend.Diag} rendering for front-end failures), so a client
    needs no access to the server's exception types. *)

exception Malformed of string

(** Protocol version carried in every frame; bumped on any incompatible
    encoding change.  Version 2 added the client-generated request id on
    [Compile], the queue-wait/service timings on [Done], and
    [Dump]/[Dump_reply]; version 3 added the allocation strategy on
    [Compile]; version 4 added the [Health] and [Metrics_text] telemetry
    requests with their replies.  A frame from an old client fails the
    version check and is answered with a clean ["protocol"] [Error],
    never decoded as garbage. *)
val version : int

(** Upper bound on a frame's payload, in bytes (16 MiB). *)
val max_frame : int

(** What a [Compile] request does after compiling: link only, link and
    execute, or link and execute under the dynamic penalty profiler. *)
type action = Build | Run | Profile

type request =
  | Compile of {
      id : int;
          (** client-generated request id correlating the daemon's spans,
              log lines and flight-recorder events with the client's own
              trace; negative = unscoped *)
      action : action;
      srcs : string list;
          (** source unit texts, the unit defining [main] first *)
      o3 : bool;
      shrinkwrap : bool;
      global_promo : bool;
      alloc : string;
          (** allocation strategy in [--alloc] spelling ([chow], [linear],
              [spill-all]); an unknown name is answered with a
              ["protocol"] [Error] *)
      fuel : int option;
          (** simulation fuel for [Run]/[Profile]; a value below 0 or above
              [Sim.default_fuel] is answered with a ["protocol"] [Error] *)
      priority : int;
          (** scheduling priority: higher runs sooner; 0 = normal *)
    }
  | Ping
  | Stats  (** snapshot of the server's metrics registry *)
  | Shutdown
  | Dump  (** the flight recorder's current contents, as JSON *)
  | Health
      (** readiness probe: is the daemon able to make progress right
          now?  Always answered immediately from the connection thread,
          never queued — a wedged worker pool cannot wedge the probe. *)
  | Metrics_text  (** the OpenMetrics page ({!Chow_obs.Export}) *)

type reply =
  | Done of {
      text : string;  (** rendered output of the action *)
      counters : (string * int) list;
          (** per-request metric deltas ({!Chow_obs.Metrics.diff}) *)
      queue_wait_ns : int;
          (** time the request sat in the admission queue *)
      service_ns : int;  (** time a worker spent executing it *)
    }
  | Error of { kind : string; message : string }
      (** [kind]: ["compile"] (Diag-rendered), ["link"], ["runtime"],
          ["artifact"], ["protocol"] or ["internal"] *)
  | Busy
      (** admission queue full — retry later; the request was not
          enqueued *)
  | Pong
  | Stats_reply of (string * int) list
  | Bye  (** shutdown acknowledged *)
  | Dump_reply of string  (** {!Chow_obs.Event.flight_json} output *)
  | Health_reply of { ready : bool; checks : (string * bool * string) list }
      (** [ready] is the conjunction of the [checks]; each check is
          [(name, ok, detail)] — the daemon is degraded, not dead, when
          some check fails (e.g. the admission queue is at its bound) *)
  | Metrics_reply of string  (** the rendered OpenMetrics page *)

val encode_request : request -> string
val decode_request : string -> request
val encode_reply : reply -> string
val decode_reply : string -> reply

(** [write_frame fd payload] writes the length header and [payload].
    Raises {!Malformed} if [payload] exceeds {!max_frame}. *)
val write_frame : Unix.file_descr -> string -> unit

(** [read_frame fd] reads one frame.  [None] on clean end-of-stream (the
    peer closed between frames); raises {!Malformed} on a truncated or
    oversized frame. *)
val read_frame : Unix.file_descr -> string option

(** Convenience: frame + encode / read + decode. *)

val send_request : Unix.file_descr -> request -> unit
val send_reply : Unix.file_descr -> reply -> unit
val recv_request : Unix.file_descr -> request option
val recv_reply : Unix.file_descr -> reply option
