(** See event.mli.  A ring is an array of mutable slots plus a write
    count; slot [count mod capacity] is the next write.  Each slot also
    carries a state: [lost] (no sink: overwriting it drops it), [pending]
    (its sink has not seen it yet) or [written].  All pending slots lie in
    [\[drained, count)], since every drain clears them all.

    Lock order: [drain_lock], then [registry_lock], then ring locks in
    registry order.  {!push} holds only its own ring's lock and lets go of
    it before it drains.  Sinks are set and cleared only under
    [drain_lock], so they stay fixed during a drain. *)

type field = Int of int | Str of string | Bool of bool
type level = Error | Warn | Info | Debug

let capacity = 2048

let rank = function Error -> 0 | Warn -> 1 | Info -> 2 | Debug -> 3

let level_name = function
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"
  | Debug -> "debug"

let levels = [| Error; Warn; Info; Debug |]

let level_of_string s =
  Array.find_opt (fun l -> level_name l = s) levels

(* event kinds; a log line's kind is [k_log + rank level] *)
let k_span = 0
let k_counter = 1
let k_mark = 2
let k_log = 3

(* slot states *)
let lost = 0
let pending = 1
let written = 2

type slot = {
  mutable kind : int;
  mutable state : int;
  mutable ts : int;  (** ns since the Unix epoch *)
  mutable dur : int;  (** ns; spans only *)
  mutable req : int;
  mutable tid : int;  (** recording domain *)
  mutable name : string;
  mutable body : string;
      (** rendered JSON fields without braces; a mark's raw detail *)
}

type ring = {
  lock : Mutex.t;
  slots : slot array;
  mutable count : int;  (** total pushes *)
  mutable drained : int;  (** [count] at the last drain *)
  mutable dropped : int;
  mutable owned : bool;  (** false once the owning domain has exited *)
}

type sink = { oc : out_channel; mutable fresh : bool }

let trace_flag = Atomic.make false
let threshold = Atomic.make (-1) (* rank of the most verbose kept level *)
let flight_flag = Atomic.make false
let epoch = Atomic.make 0
let trace_sink : sink option Atomic.t = Atomic.make None
let log_sink : sink option Atomic.t = Atomic.make None
let registry : ring list ref = ref []
let registry_lock = Mutex.create ()
let drain_lock = Mutex.create ()

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let new_ring () =
  {
    lock = Mutex.create ();
    slots =
      Array.init capacity (fun _ ->
          { kind = 0; state = lost; ts = 0; dur = 0; req = -1; tid = 0;
            name = ""; body = "" });
    count = 0;
    drained = 0;
    dropped = 0;
    owned = true;
  }

(* a starting domain adopts the ring of one that has exited, so domain
   churn cannot grow the registry *)
let ring_key =
  Domain.DLS.new_key (fun () ->
      let r =
        Mutex.protect registry_lock (fun () ->
            match List.find_opt (fun r -> not r.owned) !registry with
            | Some r ->
                r.owned <- true;
                r
            | None ->
                let r = new_ring () in
                registry := r :: !registry;
                r)
      in
      Domain.at_exit (fun () ->
          Mutex.protect registry_lock (fun () -> r.owned <- false));
      r)

let rings () = Mutex.protect registry_lock (fun () -> !registry)

let sink_of kind =
  if kind = k_mark then None
  else if kind >= k_log then Atomic.get log_sink
  else Atomic.get trace_sink

(* ----- rendering ----- *)

let render_fields = function
  | [] -> ""
  | kvs ->
      let b = Buffer.create 64 in
      List.iteri
        (fun k (key, v) ->
          if k > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          Json.add_escaped b key;
          Buffer.add_string b "\":";
          match v with
          | Int n -> Buffer.add_string b (string_of_int n)
          | Bool v -> Buffer.add_string b (if v then "true" else "false")
          | Str s ->
              Buffer.add_char b '"';
              Json.add_escaped b s;
              Buffer.add_char b '"')
        kvs;
      Buffer.contents b

(* trace-event times are microseconds, with ns kept as three decimals *)
let add_us b ns =
  let ns = max 0 ns in
  Printf.bprintf b "%d.%03d" (ns / 1000) (ns mod 1000)

let add_chrome b s =
  Buffer.add_string b "{\"name\":\"";
  Json.add_escaped b s.name;
  Printf.bprintf b "\",\"ph\":\"%s\",\"pid\":1,\"tid\":%d,\"ts\":"
    (if s.kind = k_span then "X" else "C")
    s.tid;
  add_us b (s.ts - Atomic.get epoch);
  if s.kind = k_span then begin
    Buffer.add_string b ",\"dur\":";
    add_us b s.dur
  end;
  if s.body <> "" then Printf.bprintf b ",\"args\":{%s}" s.body;
  Buffer.add_char b '}'

let add_log_line b s =
  Printf.bprintf b "{\"ts\":%d,\"level\":\"%s\",\"event\":\"" (s.ts / 1000)
    (level_name levels.(s.kind - k_log));
  Json.add_escaped b s.name;
  Buffer.add_char b '"';
  if s.req >= 0 then Printf.bprintf b ",\"req\":%d" s.req;
  if s.body <> "" then begin
    Buffer.add_char b ',';
    Buffer.add_string b s.body
  end;
  Buffer.add_string b "}\n"

let copy s = { s with kind = s.kind }
let by_ts = List.stable_sort (fun a b -> compare a.ts b.ts)

(* ----- sinks and draining ----- *)

(* a sink whose disk fails is closed, not raised into the recording
   path: observability must never take its host down *)
let emit slot what text =
  match Atomic.get slot with
  | Some sk when text <> "" -> (
      try
        output_string sk.oc text;
        flush sk.oc
      with Sys_error msg ->
        Printf.eprintf "error: %s sink failed, closing it: %s\n%!" what msg;
        close_out_noerr sk.oc;
        Atomic.set slot None)
  | _ -> ()

(* under [drain_lock]: take every ring's pending slots while holding all
   ring locks (the ordering argument in event.mli), then write outside
   them *)
let drain_locked () =
  let pend =
    Mutex.protect registry_lock (fun () ->
        let rs = !registry in
        List.iter (fun r -> Mutex.lock r.lock) rs;
        let acc = ref [] in
        List.iter
          (fun r ->
            for i = max r.drained (r.count - capacity) to r.count - 1 do
              let s = r.slots.(i mod capacity) in
              if s.state = pending then
                if sink_of s.kind = None then s.state <- lost
                else begin
                  acc := copy s :: !acc;
                  s.state <- written
                end
            done;
            r.drained <- r.count)
          rs;
        List.iter (fun r -> Mutex.unlock r.lock) rs;
        List.rev !acc)
  in
  let tb = Buffer.create 4096 and lb = Buffer.create 4096 in
  List.iter
    (fun s ->
      if s.kind >= k_log then add_log_line lb s
      else
        Option.iter
          (fun sk ->
            Buffer.add_string tb (if sk.fresh then "\n" else ",\n");
            sk.fresh <- false;
            add_chrome tb s)
          (Atomic.get trace_sink))
    (by_ts pend);
  emit trace_sink "trace" (Buffer.contents tb);
  emit log_sink "log" (Buffer.contents lb)

let drain () =
  if Atomic.get trace_sink <> None || Atomic.get log_sink <> None then
    Mutex.protect drain_lock drain_locked

let open_sink slot path header =
  let sk = { oc = open_out path; fresh = true } in
  output_string sk.oc header;
  Mutex.protect drain_lock (fun () -> Atomic.set slot (Some sk))

let close_sink slot what trailer =
  Mutex.protect drain_lock (fun () ->
      drain_locked ();
      Option.iter
        (fun sk ->
          emit slot what trailer;
          close_out_noerr sk.oc;
          Atomic.set slot None)
        (Atomic.get slot))

(* [ts < 0]: stamp the event now, under the ring lock *)
let rec push ~kind ~ts ~dur ~req ~name ~body =
  let r = Domain.DLS.get ring_key in
  Mutex.lock r.lock;
  let s = r.slots.(r.count mod capacity) in
  let full = r.count >= capacity in
  if full && s.state = pending && sink_of s.kind <> None then begin
    Mutex.unlock r.lock;
    drain ();
    push ~kind ~ts ~dur ~req ~name ~body
  end
  else begin
    if full && s.state <> written then r.dropped <- r.dropped + 1;
    s.kind <- kind;
    s.state <- (if sink_of kind = None then lost else pending);
    s.ts <- (if ts < 0 then now_ns () else ts);
    s.dur <- dur;
    s.req <- req;
    s.tid <- (Domain.self () :> int);
    s.name <- name;
    s.body <- body;
    r.count <- r.count + 1;
    Mutex.unlock r.lock
  end

(* ----- tracing ----- *)

let enable_trace ?sink () =
  Option.iter (fun path -> open_sink trace_sink path "[") sink;
  if Atomic.get epoch = 0 then Atomic.set epoch (now_ns ());
  Atomic.set trace_flag true

let disable_trace () =
  Atomic.set trace_flag false;
  close_sink trace_sink "trace" "\n]\n"

let trace_on () = Atomic.get trace_flag

let span ?(args = []) name f =
  if not (Atomic.get trace_flag) then f ()
  else begin
    let body = render_fields args in
    let t0 = now_ns () in
    let finish () =
      push ~kind:k_span ~ts:t0 ~dur:(now_ns () - t0) ~req:(Context.request ())
        ~name ~body
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let counter name series =
  if Atomic.get trace_flag then
    push ~kind:k_counter ~ts:(now_ns ()) ~dur:0 ~req:(Context.request ()) ~name
      ~body:(render_fields (List.map (fun (k, n) -> (k, Int n)) series))

let elapsed_ns () =
  let e = Atomic.get epoch in
  if e = 0 then 0 else now_ns () - e

(* the epoch is added here so that rendering's subtraction leaves the
   caller's timebase intact *)
let span_at ?(args = []) ~ts_ns ~dur_ns name =
  if Atomic.get trace_flag then
    push ~kind:k_span ~ts:(Atomic.get epoch + ts_ns) ~dur:dur_ns
      ~req:(Context.request ()) ~name ~body:(render_fields args)

(* ----- logging ----- *)

let enable_log ?sink l =
  Option.iter (fun path -> open_sink log_sink path "") sink;
  Atomic.set threshold (rank l)

let disable_log () =
  Atomic.set threshold (-1);
  close_sink log_sink "log" ""

let log_on l = rank l <= Atomic.get threshold

let log level ~req event fields =
  if rank level <= Atomic.get threshold then
    push ~kind:(k_log + rank level) ~ts:(-1) ~dur:0
      ~req:(if req >= 0 then req else Context.request ())
      ~name:event ~body:(render_fields fields)

let error ?(req = -1) event fields = log Error ~req event fields
let warn ?(req = -1) event fields = log Warn ~req event fields
let info ?(req = -1) event fields = log Info ~req event fields
let debug ?(req = -1) event fields = log Debug ~req event fields

(* ----- flight recorder ----- *)

let enable_flight () = Atomic.set flight_flag true
let flight_on () = Atomic.get flight_flag

let mark ?req ?(detail = "") event =
  if Atomic.get flight_flag then
    push ~kind:k_mark ~ts:(-1) ~dur:0
      ~req:(match req with Some r -> r | None -> Context.request ())
      ~name:event ~body:detail

(* ----- snapshots ----- *)

(* oldest-first copies of the held slots satisfying [keep], all rings,
   merged by timestamp *)
let held_slots keep =
  List.concat_map
    (fun r ->
      Mutex.protect r.lock (fun () ->
          let n = min r.count capacity in
          List.filter_map
            (fun k ->
              let s = r.slots.((r.count - n + k) mod capacity) in
              if keep s.kind then Some (copy s) else None)
            (List.init n Fun.id)))
    (rings ())
  |> by_ts

let held () =
  List.map
    (fun r -> Mutex.protect r.lock (fun () -> min r.count capacity))
    (rings ())

let dropped () =
  List.fold_left
    (fun acc r -> acc + Mutex.protect r.lock (fun () -> r.dropped))
    0 (rings ())

let reset () =
  Mutex.protect registry_lock (fun () ->
      List.iter
        (fun r ->
          Mutex.protect r.lock (fun () ->
              r.count <- 0;
              r.drained <- 0;
              r.dropped <- 0))
        !registry)

let marks () =
  List.map
    (fun s -> (s.ts / 1000, s.req, s.name, s.body))
    (held_slots (fun k -> k = k_mark))

let chrome_json () =
  let b = Buffer.create 4096 in
  Buffer.add_char b '[';
  List.iteri
    (fun k s ->
      Buffer.add_string b (if k = 0 then "\n" else ",\n");
      add_chrome b s)
    (held_slots (fun k -> k < k_mark));
  Buffer.add_string b "\n]\n";
  Buffer.contents b

let log_text () =
  let b = Buffer.create 4096 in
  List.iter (add_log_line b) (held_slots (fun k -> k >= k_log));
  Buffer.contents b

let flight_json () =
  let evs = marks () in
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\"capacity\":%d,\"dropped\":%d,\"gauges\":{" capacity
    (dropped ());
  (* instantaneous levels at dump time: a trap dump should say not just
     what happened last but what the daemon looked like when it died *)
  List.iteri
    (fun k (name, v) ->
      if k > 0 then Buffer.add_char b ',';
      Buffer.add_char b '"';
      Json.add_escaped b name;
      Printf.bprintf b "\":%d" v)
    (Metrics.gauges ());
  Buffer.add_string b "},\"events\":[";
  List.iteri
    (fun k (ts, req, event, detail) ->
      if k > 0 then Buffer.add_char b ',';
      Printf.bprintf b "\n{\"ts\":%d" ts;
      if req >= 0 then Printf.bprintf b ",\"req\":%d" req;
      Buffer.add_string b ",\"event\":\"";
      Json.add_escaped b event;
      Buffer.add_char b '"';
      if detail <> "" then begin
        Buffer.add_string b ",\"detail\":\"";
        Json.add_escaped b detail;
        Buffer.add_char b '"'
      end;
      Buffer.add_char b '}')
    evs;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b
