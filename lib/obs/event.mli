(** The one event layer: trace spans and counters, structured log lines
    and flight-recorder marks, all stored as typed events in one bounded
    ring per domain and rendered three ways — a Chrome trace array, a
    JSON-lines log and a flight dump.

    {b Features.} Tracing, logging and the flight recorder are armed
    separately and are off by default.  Every probe first loads one atomic
    and returns at once when its feature is off: a disabled probe
    allocates nothing (for {!log}, as long as the call site passes a
    field list that already exists — guard field construction with
    {!log_on}).

    {b Storage.} Each domain records into its own ring of {!capacity}
    slots; sys-threads share their domain's ring (the server's connection
    readers all run on domain 0), so each ring has a mutex.  A ring is
    reused by the next domain to start once its owner exits, so memory
    stays O(live domains × capacity) whatever the workload.

    {b Sinks.} [enable_trace ~sink] and [enable_log ~sink] open their file
    at once (an unwritable path raises [Sys_error] before any work).  An
    event whose feature has a sink is {i pending} until a {!drain} writes
    it.  A ring never overwrites a pending event: it drains first.  Drains
    also run wherever a caller marks a boundary (the daemon: after each
    request) and when a sink is closed, so a killed process has already
    written everything up to its last boundary.  An event without a sink
    (marks always; spans and log lines when no file is attached) is
    overwritten once its ring wraps and counted in {!dropped}.

    {b Order.} Log lines and marks take their timestamp under their ring's
    lock, and a drain collects every ring's pending events while holding
    all ring locks, then writes them sorted by timestamp.  Anything
    recorded after a drain therefore carries a later timestamp than
    everything that drain wrote, so the log file is in timestamp order
    across domains. *)

(** Span arguments and log-line fields, rendered as typed JSON. *)
type field = Int of int | Str of string | Bool of bool

type level = Error | Warn | Info | Debug

(** Slots per domain ring. *)
val capacity : int

(** {1 Tracing} *)

(** [enable_trace ?sink ()] arms spans and counters; the first call fixes
    the trace epoch.  With [sink], the Chrome JSON array streams into that
    file (it is terminated by {!disable_trace}; an unterminated array, as
    a killed process leaves it, still loads in Perfetto). *)
val enable_trace : ?sink:string -> unit -> unit

(** Disarm tracing; drain and close its sink, if any. *)
val disable_trace : unit -> unit

val trace_on : unit -> bool

(** [span ?args name f] runs [f ()] inside a complete-event span
    ([ph:"X"]) on the calling domain's timeline, recorded when [f]
    returns or raises. *)
val span : ?args:(string * field) list -> string -> (unit -> 'a) -> 'a

(** [span_at ~ts_ns ~dur_ns name] records a span whose start (relative to
    the trace epoch) and duration the caller supplies — simulated time,
    or an interval measured across threads. *)
val span_at :
  ?args:(string * field) list -> ts_ns:int -> dur_ns:int -> string -> unit

(** [counter name series] records one sample of each series ([ph:"C"]). *)
val counter : string -> (string * int) list -> unit

(** Wall-clock nanoseconds since the trace epoch, or [0] before the first
    {!enable_trace} — the timebase of {!span_at}. *)
val elapsed_ns : unit -> int

(** {1 Logging} *)

(** [enable_log ?sink l] keeps lines up to severity [l] ([enable_log Info]
    drops [Debug]); with [sink] they stream into that file as JSON lines:
    {v {"ts":<µs since the Unix epoch>,"level":"info","event":"accept",
       "req":<present unless unscoped>, <fields…>} v}
    Field keys must avoid the reserved [ts]/[level]/[event]/[req]. *)
val enable_log : ?sink:string -> level -> unit

(** Disarm logging; drain and close its sink, if any. *)
val disable_log : unit -> unit

(** [log_on l] is true when a line at severity [l] would be kept. *)
val log_on : level -> bool

(** [log l ~req event fields] records one line; [req = -1] takes the
    ambient {!Context.request} (itself [-1], rendered as no [req] key,
    outside any request). *)
val log : level -> req:int -> string -> (string * field) list -> unit

val error : ?req:int -> string -> (string * field) list -> unit
val warn : ?req:int -> string -> (string * field) list -> unit
val info : ?req:int -> string -> (string * field) list -> unit
val debug : ?req:int -> string -> (string * field) list -> unit

(** Severity names, lowercase; [level_of_string] rejects anything else. *)
val level_name : level -> string

val level_of_string : string -> level option

(** {1 Flight recorder} *)

val enable_flight : unit -> unit
val flight_on : unit -> bool

(** [mark ?req ?detail event] records one flight event; [req] defaults to
    the ambient {!Context.request}.  Guard with {!flight_on} if building
    [detail] costs anything. *)
val mark : ?req:int -> ?detail:string -> string -> unit

(** Marks still held, oldest first across all rings, as
    [(ts_us, req, event, detail)] ([req] is [-1] when unscoped). *)
val marks : unit -> (int * int * string * string) list

(** Events overwritten without ever reaching a sink, since the last
    {!reset}. *)
val dropped : unit -> int

(** The flight dump, one JSON object:
    {v {"capacity":N,"dropped":D,"gauges":{"name":v,…},"events":[
       {"ts":…,"req":…,"event":"…","detail":"…"}, …]} v}
    Marks oldest first; [req]/[detail] are omitted when unset.  [gauges]
    holds {!Metrics.gauges} at dump time.  Safe while others record. *)
val flight_json : unit -> string

(** {1 Rings} *)

(** Write every pending event to its sink, in timestamp order.  A no-op
    (no lock taken) while no sink is open. *)
val drain : unit -> unit

(** The events each ring holds now, one count per ring. *)
val held : unit -> int list

(** Clear every ring and the dropped count. *)
val reset : unit -> unit

(** The spans and counters the rings hold, as one Chrome trace array. *)
val chrome_json : unit -> string

(** The log lines the rings hold, in timestamp order, one per line. *)
val log_text : unit -> string
