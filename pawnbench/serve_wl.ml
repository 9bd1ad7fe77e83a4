(** [serve]: a [pawnc serve] daemon with one worker per core and a
    bounded one-shard cache, pre-seeded with a 16-unit working set and
    driven by one closed-loop client connection per core sending [Build]
    requests, as build tools do when they wait on each reply.  Seven
    requests in eight read a working-set unit from the cache; one in
    eight builds a never-seen unit, paying a full compile, a store and an
    eviction.  Each request is classified as a hit or a miss from the
    counter deltas of its [Done] reply. *)

module Protocol = Chow_server.Protocol
module Client = Chow_server.Client
module Pipeline = Chow_compiler.Pipeline
module Asm = Chow_codegen.Asm

let build_req id src =
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

(* the integers of a text, in order *)
let ints s =
  String.map (fun c -> if c >= '0' && c <= '9' then c else ' ') s
  |> String.split_on_char ' '
  |> List.filter_map int_of_string_opt

(** What every [Build] of a serve unit must answer: one unit linked, with
    the code and data size an in-process compile of the same shape has. *)
let expected_summary () =
  let p =
    Pipeline.program
      (Pipeline.compile_source (Check.o3sw 1) (Pipeline.Src (Inputs.serve_unit 0)))
  in
  [ 1; Array.length p.Asm.code; p.Asm.data_size ]

(** One served request: its place in the order requests were issued, its
    round trip in seconds, the factor that scales it to the reference
    speed, the daemon's own account of queue wait and service in ns, and
    the classification. *)
type sample = {
  index : int;
  latency : float;
  scale : float;
  outcome : Stats.outcome;
  queue_ns : int;
  service_ns : int;
}

let max_entries = Inputs.working_set + 8

let seed_working_set tally d ~seed ~expect =
  for i = 0 to Inputs.working_set - 1 do
    Measure.attempt tally;
    match Daemon.request d (build_req i (Inputs.serve_unit (Inputs.warm_salt ~seed i))) with
    | Protocol.Done r when ints r.text = expect -> ()
    | _ | (exception _) -> Measure.fail tally "seeding working-set unit %d" i
  done

(** Start a daemon and seed its working set; stops it again on failure. *)
let setup tally ~pawnc ~seed ~expect =
  let d =
    Daemon.start ~pawnc ~workers:(Domain.recommended_domain_count ()) ~max_entries
  in
  match seed_working_set tally d ~seed ~expect with
  | () -> d
  | exception e ->
      ignore (Daemon.stop d);
      raise e

let stop tally d =
  Measure.attempt tally;
  if not (Daemon.stop d) then Measure.fail tally "daemon did not stop cleanly"

(** [drive tally d ~seed ~seconds ~expect] runs one closed-loop client
    per core for [seconds], in one-second windows with a probe of the
    host's speed between them; returns every completed request's sample
    and the elapsed time scaled to the reference speed.  A failed request
    is counted and its connection reopened; it never stops the drive. *)
let drive tally d ~seed ~seconds ~expect =
  let clients = Domain.recommended_domain_count () in
  let next = Atomic.make 0 and hits = Atomic.make 0 in
  let perm =
    Array.of_list
      (Inputs.shuffle (Random.State.make [| seed |])
         (List.init Inputs.working_set Fun.id))
  in
  let warm = Array.map (fun i -> Inputs.serve_unit (Inputs.warm_salt ~seed i)) perm in
  let conns = Array.make clients None and results = Array.make clients [] in
  let client k deadline () =
    while Measure.now () < deadline do
      let i = Atomic.fetch_and_add next 1 in
      let src =
        if i mod 8 = 7 then Inputs.serve_unit (Inputs.cold_salt ~seed (i / 8))
        else warm.(Atomic.fetch_and_add hits 1 mod Inputs.working_set)
      in
      Measure.attempt tally;
      match
        let c =
          match conns.(k) with
          | Some c -> c
          | None ->
              let c = Daemon.connect d in
              conns.(k) <- Some c;
              c
        in
        Measure.timed (fun () -> Client.request c (build_req i src))
      with
      | Protocol.Done r, latency ->
          let outcome =
            Stats.classify ~unit_procs:Inputs.serve_unit_procs r.counters
          in
          if outcome = Stats.Unclassified then
            Measure.fail tally "request %d: no cache lookup in its counters" i
          else if ints r.text <> expect then
            Measure.fail tally "request %d answered %S" i r.text
          else
            results.(k) <-
              {
                index = i;
                latency;
                scale = 1.;
                outcome;
                queue_ns = r.queue_wait_ns;
                service_ns = r.service_ns;
              }
              :: results.(k)
      | _, _ -> Measure.fail tally "request %d: reply other than Done" i
      | exception e ->
          Measure.fail tally "request %d: %s" i (Printexc.to_string e);
          Option.iter Client.close conns.(k);
          conns.(k) <- None;
          Unix.sleepf 0.01
    done
  in
  let samples = ref [] and elapsed = ref 0. in
  let t0 = Measure.now () in
  while Measure.now () -. t0 < seconds do
    let deadline = Float.min (Measure.now () +. 1.) (t0 +. seconds) in
    let (), dt =
      Measure.timed (fun () ->
          List.iter Thread.join
            (List.init clients (fun k -> Thread.create (client k deadline) ())))
    in
    let f = Measure.lap () in
    elapsed := !elapsed +. (dt *. f);
    Array.iteri
      (fun k window ->
        samples :=
          List.rev_append
            (List.map (fun s -> { s with scale = f }) window)
            !samples;
        results.(k) <- [])
      results
  done;
  Array.iter (Option.iter Client.close) conns;
  (!samples, !elapsed)

let latencies outcome samples =
  List.filter_map
    (fun s -> if s.outcome = outcome then Some (s.latency *. s.scale) else None)
    samples

(** The median, over consecutive runs of 2000 issued requests, of each
    run's p99 hit latency, in ms.  About 1750 of 2000 requests are hits,
    so each p99 has more than ten samples beyond it whatever the host's
    speed (a last, shorter run with fewer is left out), and the median
    keeps a few stalled seconds of the host from moving the tail. *)
let chunked_p99 samples =
  let chunks = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.outcome = Stats.Hit then
        Hashtbl.replace chunks (s.index / 2000)
          (s.latency *. s.scale *. 1000.
          :: Option.value ~default:[] (Hashtbl.find_opt chunks (s.index / 2000))))
    samples;
  let p99s =
    Hashtbl.fold
      (fun _ l acc ->
        match Stats.tail ~candidates:[ 99. ] (Stats.sorted l) with
        | Some (_, v) -> v :: acc
        | None -> acc)
      chunks []
  in
  if p99s = [] then 0. else Stats.median (Stats.sorted p99s)

let run tally ~pawnc ~seed ~seconds =
  let expect = expected_summary () in
  let setups = ref [] and daemon = ref None in
  for _ = 1 to Measure.setups do
    Option.iter (stop tally) !daemon;
    daemon := None;
    let d, dt = Measure.normalized (fun () -> setup tally ~pawnc ~seed ~expect) in
    setups := dt :: !setups;
    daemon := Some d
  done;
  let d = Option.get !daemon in
  Fun.protect
    ~finally:(fun () -> stop tally d)
    (fun () ->
      ignore (Measure.lap ());
      let samples, elapsed = drive tally d ~seed ~seconds ~expect in
      Measure.end_to_end tally
        ~tail:("the median p99 of runs of 2000 requests", fun _ -> chunked_p99 samples)
        ~setups:!setups
        ~ops:(latencies Stats.Hit samples)
        ~cold:(latencies Stats.Miss samples)
        ~completed:(List.length samples) ~elapsed ~rss:(Daemon.peak_rss_mb d))
