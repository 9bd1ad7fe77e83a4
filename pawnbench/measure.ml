(** Clocks, memory readings, failure accounting and the result line. *)

let now = Unix.gettimeofday

(** [timed f] is [f ()] with its wall-clock duration in seconds. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(** Peak resident set (VmHWM) of the process whose [/proc] status file
    is [status], in MB; 0 when the kernel does not report it. *)
let peak_rss_mb ?(status = "/proc/self/status") () =
  match In_channel.with_open_text status In_channel.input_lines with
  | lines ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.
              | [] -> acc)
          | _ -> acc)
        0. lines
  | exception Sys_error _ -> 0.

(** Operations attempted and failed over a run.  A failure is recorded
    with its reason and never aborts the run. *)
type tally = { mutable attempted : int; mutable failed : int; lock : Mutex.t }

let tally () = { attempted = 0; failed = 0; lock = Mutex.create () }

let attempt t = Mutex.protect t.lock (fun () -> t.attempted <- t.attempted + 1)

let fail t fmt =
  Printf.ksprintf
    (fun msg ->
      Mutex.protect t.lock (fun () ->
          if t.failed < 20 then prerr_endline ("pawnbench: failed: " ^ msg);
          t.failed <- t.failed + 1))
    fmt

(** [guard t what f] counts one attempt of [f] and a failure when it
    raises; [None] then. *)
let guard t what f =
  attempt t;
  match f () with
  | v -> Some v
  | exception e ->
      fail t "%s: %s" what (Printexc.to_string e);
      None

(** One reported metric. *)
type metric = { name : string; value : float; unit : string }

let metric name unit value = { name; value; unit }

(** Prints a metric by name with its unit, and with the spread and count
    of the samples it summarises when there are any. *)
let describe ?samples m =
  match samples with
  | Some a when Array.length a > 1 ->
      Printf.printf "  %-28s %14.4f %-8s (iqr/median %.3f, n=%d)\n" m.name
        m.value m.unit (Stats.spread a) (Array.length a)
  | _ -> Printf.printf "  %-28s %14.4f %s\n" m.name m.value m.unit

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(** The result line: the last line of standard output.  The run is
    correct when something was attempted, nothing failed and every metric
    is a finite number. *)
let print_result (t : tally) metrics =
  let finite = List.for_all (fun m -> Float.is_finite m.value) metrics in
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_number (if Float.is_finite m.value then m.value else 0.))
          m.unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (finite && t.failed = 0 && t.attempted > 0)
    t.attempted t.failed
    (String.concat ", " fields)

(** {2 Host speed}

    The host's speed swings with other tenants' memory traffic: a compile
    pass measured 36 ms and 57 ms minutes apart on identical code, in
    alternating stretches of seconds to tens of seconds, so run length
    alone cannot average it out.  A fixed reference kernel (balanced-tree
    inserts and a fold: allocation and pointer chasing, like a compile),
    timed between measurements, tracks the swing; each measurement is
    scaled by [nominal] over the mean of the kernel times on either side
    of it.  Times are thus reported at the reference speed: wall time on
    an uncontended core of the host that fixed [nominal].

    The kernel runs on the benchmark's own thread, so it sees the core
    the measurement ran on: timed from a helper process instead, it
    tracked the swing worse than the raw times did.  Its garbage is
    short-lived, but its collection cost can still depend a little on the
    heap the workload holds. *)

module Int_map = Map.Make (Int)

let kernel () =
  for _ = 1 to 2 do
    let m = ref Int_map.empty in
    for i = 0 to 5999 do
      m := Int_map.add (i * 7919 mod 10007) i !m
    done;
    ignore (Sys.opaque_identity (Int_map.fold (fun k v a -> a + k + v) !m 0))
  done

(** The kernel's time, in seconds, on an uncontended core of the host the
    bounds were set on. *)
let nominal = 0.0026

(** Every kernel time of this run. *)
let probes = ref []

let probe () =
  let (), r = timed kernel in
  probes := r :: !probes;
  r

let last = ref None

(** [lap ()] times the kernel again and returns the factor that scales a
    wall time measured since the previous probe to the reference speed
    (since now, when there was none). *)
let lap () =
  let before = match !last with Some r -> r | None -> probe () in
  let r = probe () in
  last := Some r;
  nominal /. ((before +. r) /. 2.)

(** [between_probes f] runs [f] right after a probe and before another;
    returns its result, its wall time and the factor that scales the wall
    time to the reference speed. *)
let between_probes f =
  if !last = None then ignore (lap ());
  let r, dt = timed f in
  (r, dt, lap ())

(** [normalized f] is [f]'s result and its time at the reference speed. *)
let normalized f =
  let r, dt, k = between_probes f in
  (r, dt *. k)

(** Set-ups per run: [setup_s] is their median. *)
let setups = 9

(** The end-to-end metrics every workload reports, from its samples in
    seconds at the reference speed: [setups] (each full set-up), [ops]
    (the workload's unit of work), [cold] (single uncached compiles), and
    [completed] operations over [elapsed] seconds of measurement.  [tail]
    names the workload's tail and computes it in ms from the ascending
    [ops] in ms; it is fixed per workload so that it cannot change
    meaning with the host's speed.  The summary also names the highest
    percentile of [ops] with ten samples beyond it. *)
let end_to_end tally ~tail:(tail_name, tail) ~setups ~ops ~cold ~completed ~elapsed ~rss =
  let ms xs = Stats.sorted (List.map (fun s -> s *. 1000.) xs) in
  let setups = Stats.sorted setups and ops = ms ops and cold = ms cold in
  let median name a =
    if Array.length a = 0 then begin
      fail tally "no %s samples" name;
      0.
    end
    else Stats.median a
  in
  let probes = Stats.sorted (List.map (fun r -> r *. 1000.) !probes) in
  Printf.printf "  host reference kernel: median %.3f ms over %d probes (nominal %.3f ms)\n"
    (Stats.median probes) (Array.length probes) (nominal *. 1000.);
  Printf.printf "  tail_ms is %s, over %d samples; %s\n" tail_name (Array.length ops)
    (match Stats.tail ~candidates:[ 50.; 90.; 99.; 99.9 ] ops with
    | Some (p, _) -> Printf.sprintf "the highest percentile with ten beyond is p%g" p
    | None -> "fewer than ten samples lie beyond even the median");
  [
    (metric "setup_s" "s" (median "set-up" setups), Some setups);
    (metric "p50_ms" "ms" (median "operation" ops), Some ops);
    (metric "tail_ms" "ms" (if ops = [||] then 0. else tail ops), None);
    (metric "cold_p50_ms" "ms" (median "cold compile" cold), Some cold);
    (metric "ops_per_s" "1/s" (float_of_int completed /. elapsed), None);
    (metric "peak_rss_mb" "MB" rss, None);
  ]
