(** See sampler.mli. *)

type t = {
  s_path : string;
  s_interval : float;
  s_max_lines : int;
  s_on_sample : (unit -> unit) option;
  s_lock : Mutex.t;  (** guards the channel, line count and closed flag *)
  mutable s_oc : out_channel;
  mutable s_lines : int;
  mutable s_closed : bool;
  s_stop : bool Atomic.t;
  s_stop_r : Unix.file_descr;
      (** read end of the self-pipe the sleeping thread selects on *)
  s_stop_w : Unix.file_descr;  (** written once by {!stop} to wake it *)
  mutable s_thread : Thread.t option;
}

let g_minor = Metrics.gauge "gc.minor_words"
let g_major = Metrics.gauge "gc.major_words"
let g_heap = Metrics.gauge "gc.heap_words"
let g_compactions = Metrics.gauge "gc.compactions"

let refresh_gc_gauges () =
  if Metrics.is_on () then begin
    let st = Gc.quick_stat () in
    (* quick_stat's global counters only fold in a domain's contribution at
       GC boundaries (minor/major collections, domain termination), so on
       light workloads they can read zero for a long time.  Gc.minor_words
       additionally reads the calling domain's live allocation pointer, so
       the minor gauge moves immediately; the major/heap gauges keep
       quick_stat's lagging-but-cheap semantics. *)
    Metrics.set g_minor (int_of_float (Gc.minor_words ()));
    Metrics.set g_major (int_of_float st.Gc.major_words);
    Metrics.set g_heap st.Gc.heap_words;
    Metrics.set g_compactions st.Gc.compactions
  end

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

let write_line t =
  let ts = now_us () in
  let rows = Metrics.dump () in
  let b = Buffer.create 1024 in
  let out = Buffer.add_string b in
  out (Printf.sprintf "{\"ts\":%d,\"metrics\":{" ts);
  List.iteri
    (fun k (name, v) ->
      if k > 0 then out ",";
      out "\"";
      Json.add_escaped b name;
      out (Printf.sprintf "\":%d" v))
    rows;
  out "}}\n";
  Mutex.lock t.s_lock;
  if not t.s_closed then begin
    if t.s_lines >= t.s_max_lines then begin
      (* rotation: the ring's older half moves to [path.1] (clobbering the
         previous rotation) and the live file restarts empty *)
      close_out_noerr t.s_oc;
      (try Sys.rename t.s_path (t.s_path ^ ".1") with Sys_error _ -> ());
      t.s_oc <- open_out t.s_path;
      t.s_lines <- 0
    end;
    output_string t.s_oc (Buffer.contents b);
    flush t.s_oc;
    t.s_lines <- t.s_lines + 1
  end;
  Mutex.unlock t.s_lock

let sample t =
  (match t.s_on_sample with
  | None -> ()
  | Some f -> ( try f () with _ -> ()));
  refresh_gc_gauges ();
  write_line t

(* one blocking select on the self-pipe: the thread sleeps the whole
   interval without waking (no periodic polling to contend with worker
   domains for the runtime lock on small hosts), yet [stop]'s single
   pipe write interrupts it immediately *)
let interruptible_delay t seconds =
  if not (Atomic.get t.s_stop) then
    match Unix.select [ t.s_stop_r ] [] [] seconds with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let rec loop t =
  interruptible_delay t t.s_interval;
  if not (Atomic.get t.s_stop) then begin
    sample t;
    loop t
  end

let start ?(interval_s = 1.0) ?(max_lines = 10_000) ?on_sample ~path () =
  let stop_r, stop_w = Unix.pipe ~cloexec:true () in
  let t =
    {
      s_path = path;
      s_interval = Float.max 0.001 interval_s;
      s_max_lines = max 1 max_lines;
      s_on_sample = on_sample;
      s_lock = Mutex.create ();
      s_oc = open_out path;
      s_lines = 0;
      s_closed = false;
      s_stop = Atomic.make false;
      s_stop_r = stop_r;
      s_stop_w = stop_w;
      s_thread = None;
    }
  in
  sample t;
  t.s_thread <- Some (Thread.create loop t);
  t

let stop t =
  if not (Atomic.get t.s_stop) then begin
    Atomic.set t.s_stop true;
    (try ignore (Unix.write t.s_stop_w (Bytes.make 1 '\000') 0 1)
     with Unix.Unix_error _ -> ());
    (match t.s_thread with None -> () | Some th -> Thread.join th);
    sample t;
    Mutex.lock t.s_lock;
    t.s_closed <- true;
    close_out_noerr t.s_oc;
    Mutex.unlock t.s_lock;
    (try Unix.close t.s_stop_r with Unix.Unix_error _ -> ());
    try Unix.close t.s_stop_w with Unix.Unix_error _ -> ()
  end
