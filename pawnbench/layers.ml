(** The traced run ([--trace 1]): times the calls into each layer's
    public functions, from this file, with the workload's inputs.

    - compile phases: every compile of the workload is repeated as the
      [Pipeline.compile_source] call (untraced) and as the sequence of
      layer calls the pipeline makes for one source unit without a cache
      (traced): parse, lower, layout, allocate, emit, link.  Their sum
      over the untraced time is [compiler.layer_sum_ratio].  Lexing, the
      call graph, liveness, interference, shrink-wrapping and the
      artifact codec are timed by separate calls beside the traced
      compile (they run inside the calls above, so they are not summed);
    - simulation: each program at -O3+sw, run as [Pipeline.run]
      (untraced) and as [Decode.decode] then [Decode.execute] (traced);
    - serve: the serve workload's daemon and traffic, with the server's
      own queue-wait and service times from each [Done] reply, then the
      cache lookups, link, protocol codec and metrics snapshots of a
      warm hit replayed in this process.

    Values are medians over repetitions.  [*_us] compile and simulation
    figures are per pass over the workload's inputs; cache, codec and
    snapshot figures are per call. *)

module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Cache = Chow_compiler.Cache
module Lexer = Chow_frontend.Lexer
module Parser = Chow_frontend.Parser
module Lower = Chow_frontend.Lower
module Ir = Chow_ir.Ir
module Cfg = Chow_ir.Cfg
module Dom = Chow_ir.Dom
module Loops = Chow_ir.Loops
module Machine = Chow_machine.Machine
module Callgraph = Chow_core.Callgraph
module Ipra = Chow_core.Ipra
module Liveness = Chow_core.Liveness
module Interference = Chow_core.Interference
module Shrinkwrap = Chow_core.Shrinkwrap
module Alloc_types = Chow_core.Alloc_types
module Usage = Chow_core.Usage
module Bitset = Chow_support.Bitset
module Pool = Chow_support.Pool
module Frame = Chow_codegen.Frame
module Emit = Chow_codegen.Emit
module Link = Chow_codegen.Link
module Objfile = Chow_codegen.Objfile
module Decode = Chow_sim.Decode
module Protocol = Chow_server.Protocol
module Metrics = Chow_obs.Metrics

(* named sums over one pass *)
let add tbl name v =
  Hashtbl.replace tbl name (v +. Option.value ~default:0. (Hashtbl.find_opt tbl name))

let clock tbl name f =
  let r, dt = Measure.timed f in
  add tbl name (dt *. 1e6);
  r

let count tbl name n = add tbl name (float_of_int n)

(** {2 Compile phases} *)

(* the registers a caller may assume survive a call, as the pipeline
   records them in the artifact *)
let preserved (alloc : Ipra.t) (res : Alloc_types.result) =
  if res.Alloc_types.r_open then Machine.callee_saved
  else
    match Usage.find alloc.Ipra.usage res.Alloc_types.r_proc.Ir.pname with
    | Some info -> Usage.preserved_of_mask info.Usage.mask
    | None -> Machine.callee_saved

let emit_art ~layout ~size ~init (alloc : Ipra.t) : Objfile.t =
  let procs =
    List.map
      (fun (name, (res : Alloc_types.result)) ->
        {
          Objfile.pa_code = Emit.emit_proc ~layout res (Frame.build res);
          pa_open = res.Alloc_types.r_open;
          pa_preserved = preserved alloc res;
          pa_usage =
            (if res.Alloc_types.r_open then None
             else Usage.find alloc.Ipra.usage name);
        })
      alloc.Ipra.results
  in
  {
    Objfile.o_procs = procs;
    o_data_base = 0;
    o_data_size = size;
    o_data_init = init;
    o_externs =
      Objfile.externs_of_procs (List.map (fun p -> p.Objfile.pa_code) procs);
  }

(* shrink-wrap one allocated procedure again, over the APP sets rebuilt
   from its final assignment: the blocks where each callee-saved register
   it uses holds a live value, plus $ra in every block with a call *)
let shrinkwrap tbl ~enabled (res : Alloc_types.result) =
  let p = res.Alloc_types.r_proc in
  let cfg = Cfg.of_proc p in
  let loops = Loops.compute cfg (Dom.compute cfg) in
  let lv = Liveness.compute p cfg in
  let used r =
    Array.exists (( = ) (Alloc_types.Lreg r)) res.Alloc_types.r_assignment
  in
  let candidates = List.filter used Machine.callee_saved in
  let app = Array.init (Ir.nblocks p) (fun _ -> Bitset.create Machine.nregs) in
  Array.iteri
    (fun v loc ->
      match loc with
      | Alloc_types.Lreg r when List.mem r candidates ->
          Array.iteri
            (fun l live ->
              if Bitset.mem live v || Bitset.mem lv.Liveness.live_out.(l) v then
                Bitset.set app.(l) r)
            lv.Liveness.live_in
      | _ -> ())
    res.Alloc_types.r_assignment;
  let calls = Hashtbl.length res.Alloc_types.r_call_plans > 0 in
  Hashtbl.iter (fun (l, _) _ -> Bitset.set app.(l) Machine.ra) res.Alloc_types.r_call_plans;
  let regs = (if calls then [ Machine.ra ] else []) @ candidates in
  ignore
    (clock tbl "core.shrinkwrap_us" (fun () ->
         if enabled then Shrinkwrap.compute cfg loops ~app regs
         else Shrinkwrap.entry_exit_placement cfg regs))

let instrs (ir : Ir.prog) =
  List.fold_left
    (fun acc (p : Ir.proc) ->
      Array.fold_left (fun acc b -> acc + List.length b.Ir.insts + 1) acc p.Ir.blocks)
    0 ir.Ir.procs

(** One compile as the sequence of layer calls the pipeline makes;
    returns the wall time in seconds and the allocation. *)
let traced_compile tbl (cfg : Config.t) src =
  let t0 = Measure.now () in
  let ast = clock tbl "frontend.parse_us" (fun () -> Parser.parse src) in
  let ir =
    clock tbl "frontend.lower_us" (fun () -> Lower.lower_program ~require_main:true ast)
  in
  let layout, size, init =
    clock tbl "codegen.layout_us" (fun () -> Link.layout ~base:0 ir)
  in
  let alloc =
    clock tbl "core.allocate_us" (fun () ->
        Pool.with_pool cfg.Config.jobs (fun pool ->
            Ipra.allocate_program ~ipra:cfg.Config.ipra
              ~shrinkwrap:cfg.Config.shrinkwrap ~strategy:cfg.Config.alloc ~pool
              cfg.Config.machine ir))
  in
  let art = clock tbl "codegen.emit_us" (fun () -> emit_art ~layout ~size ~init alloc) in
  ignore (clock tbl "codegen.link_us" (fun () -> Pipeline.link_units [ art ]));
  (Measure.now () -. t0, (alloc, art))

(** The phases that run inside the calls above, each timed by a call of
    its own on the same unit, with the work counts of the compile. *)
let nested_phases tbl (cfg : Config.t) src (alloc, art) =
  count tbl "frontend.tokens"
    (List.length (clock tbl "frontend.lex_us" (fun () -> Lexer.tokenize src)));
  let ir = Lower.compile_unit src in
  count tbl "ir.instrs" (instrs ir);
  let cg = clock tbl "core.callgraph_us" (fun () -> Callgraph.build ir) in
  count tbl "core.waves" (List.length (Callgraph.waves cg));
  List.iter
    (fun p ->
      let cfg = Cfg.of_proc p in
      let lv = clock tbl "core.liveness_us" (fun () -> Liveness.compute p cfg) in
      ignore (clock tbl "core.interference_us" (fun () -> Interference.build p lv)))
    ir.Ir.procs;
  count tbl "core.procs" (List.length alloc.Ipra.results);
  count tbl "core.ranges_spilled"
    (List.fold_left
       (fun acc (_, (s : Chow_core.Coloring.stats)) ->
         acc + s.Chow_core.Coloring.s_nranges - s.Chow_core.Coloring.s_allocated)
       0 alloc.Ipra.stats);
  List.iter (fun (_, res) -> shrinkwrap tbl ~enabled:cfg.Config.shrinkwrap res) alloc.Ipra.results;
  let bytes = clock tbl "codegen.objfile_write_us" (fun () -> Objfile.write art) in
  clock tbl "codegen.objfile_read_us" (fun () -> Objfile.contract_check (Objfile.read bytes))
  |> Result.iter_error failwith

let layer_sum =
  [ "frontend.parse_us"; "frontend.lower_us"; "codegen.layout_us";
    "core.allocate_us"; "codegen.emit_us"; "codegen.link_us" ]

(* medians over passes of every named sum *)
let medians passes =
  let names = match passes with [] -> [] | p :: _ -> List.of_seq (Hashtbl.to_seq_keys p) in
  List.map
    (fun n ->
      ( n,
        Stats.sorted (List.map (fun p -> Option.value ~default:0. (Hashtbl.find_opt p n)) passes) ))
    names

(** Alternate untraced and traced passes over [jobs] for [budget]
    seconds. *)
let compile_phases tally jobs ~budget =
  let passes = ref [] and untraced = ref [] and traced = ref [] in
  let t0 = Measure.now () in
  while Measure.now () -. t0 < budget || !passes = [] do
    let u =
      List.fold_left
        (fun acc (name, cfg, src) ->
          match
            Measure.guard tally name (fun () ->
                snd (Measure.timed (fun () -> Pipeline.compile_source cfg (Pipeline.Src src))))
          with
          | Some dt -> acc +. dt
          | None -> acc)
        0. jobs
    in
    (* the traced compiles keep nothing alive, as the untraced ones; the
       nested phases get their own pass, over compiles made again *)
    let tbl = Hashtbl.create 32 in
    let t =
      List.fold_left
        (fun acc (name, cfg, src) ->
          match Measure.guard tally name (fun () -> fst (traced_compile tbl cfg src)) with
          | Some dt -> acc +. dt
          | None -> acc)
        0. jobs
    in
    List.iter
      (fun (name, cfg, src) ->
        ignore
          (Measure.guard tally name (fun () ->
               let _, out = traced_compile (Hashtbl.create 8) cfg src in
               nested_phases tbl cfg src out)))
      jobs;
    untraced := (u *. 1e6) :: !untraced;
    traced := (t *. 1e3 *. Measure.lap ()) :: !traced;
    passes := tbl :: !passes
  done;
  let m = medians !passes in
  let compile_us = Stats.sorted !untraced in
  let sum = List.fold_left (fun acc n -> acc +. Stats.median (List.assoc n m)) 0. layer_sum in
  ( m
    @ [ ("compiler.compile_us", compile_us);
        ("compiler.layer_sum_ratio", [| sum /. Stats.median compile_us |]) ],
    Stats.sorted !traced )

(** {2 Simulation} *)

let sim_phases tally ~golden programs ~budget =
  let decode = ref [] and execute = ref [] and mcps = ref [] and traced = ref [] in
  let t0 = Measure.now () in
  while Measure.now () -. t0 < budget || !decode = [] do
    let dec = ref 0. and exe = ref 0. and cycles = ref 0 in
    List.iter
      (fun (name, c) ->
        match
          Measure.guard tally name (fun () ->
              let o = Pipeline.run c in
              let d, dt_d = Measure.timed (fun () -> Decode.decode (Pipeline.program c)) in
              let o', dt_e = Measure.timed (fun () -> Decode.execute d) in
              (o, o', dt_d, dt_e))
        with
        | Some (o, o', dt_d, dt_e) ->
            if List.mem_assoc name golden then Check.expect tally ~golden name o';
            if o <> o' then Measure.fail tally "%s: traced run differs" name;
            dec := !dec +. dt_d;
            exe := !exe +. dt_e;
            cycles := !cycles + o'.Decode.cycles
        | None -> ())
      programs;
    decode := (!dec *. 1e6) :: !decode;
    execute := (!exe *. 1e6) :: !execute;
    traced := ((!dec +. !exe) *. 1e3 *. Measure.lap ()) :: !traced;
    mcps := (float_of_int !cycles /. !exe /. 1e6) :: !mcps
  done;
  ( [ ("sim.decode_us", Stats.sorted !decode);
      ("sim.execute_us", Stats.sorted !execute);
      ("sim.mcycles_per_s", Stats.sorted !mcps) ],
    Stats.sorted !traced )

(** {2 Serve, cache, protocol and metrics} *)

let delta before after name =
  Option.value ~default:0 (List.assoc_opt name after)
  - Option.value ~default:0 (List.assoc_opt name before)

let stats_rows d =
  match Daemon.request d Protocol.Stats with
  | Protocol.Stats_reply rows -> rows
  | _ -> failwith "Stats request failed"

(** The daemon under the serve workload's traffic; returns the server
    metrics, one [Done] reply and the hit latencies. *)
let serve_phases tally ~pawnc ~seed ~budget =
  let expect = Serve_wl.expected_summary () in
  let d = Serve_wl.setup tally ~pawnc ~seed ~expect in
  Fun.protect
    ~finally:(fun () -> Serve_wl.stop tally d)
    (fun () ->
      let before = stats_rows d in
      let samples, _ = Serve_wl.drive tally d ~seed ~seconds:budget ~expect in
      let after = stats_rows d in
      let reply =
        Daemon.request d (Serve_wl.build_req 0 (Inputs.serve_unit (Inputs.warm_salt ~seed 0)))
      in
      let pick f outcome =
        Stats.sorted
          (List.filter_map (fun s -> if s.Serve_wl.outcome = outcome then Some (f s) else None) samples)
      in
      let us ns = float_of_int ns /. 1e3 in
      let hit = delta before after "cache.hit" and miss = delta before after "cache.miss" in
      ( [ ("server.queue_wait_us",
           Stats.sorted (List.map (fun s -> us s.Serve_wl.queue_ns) samples));
          ("server.service_hit_us", pick (fun s -> us s.Serve_wl.service_ns) Stats.Hit);
          ("server.service_miss_us", pick (fun s -> us s.Serve_wl.service_ns) Stats.Miss);
          ("server.reply_us",
           pick
             (fun s ->
               (s.Serve_wl.latency *. 1e6) -. us s.Serve_wl.queue_ns -. us s.Serve_wl.service_ns)
             Stats.Hit);
          ("cache.hit_ratio", [| float_of_int hit /. float_of_int (max 1 (hit + miss)) |]);
          ("cache.evictions", [| float_of_int (delta before after "cache.evict") |]) ],
        reply,
        Stats.sorted
          (List.map (fun l -> l *. 1e3) (Serve_wl.latencies Stats.Hit samples)) ))

(** A warm hit's in-process work, per call: the cache key, the lookup
    and the link, with one store in eight of a never-seen unit (which
    evicts), over the serve workload's working set. *)
let cache_calls tally ~seed =
  let dir = Daemon.fresh_dir () in
  Fun.protect
    ~finally:(fun () ->
      Daemon.rm_rf dir;
      try Unix.rmdir Daemon.root with Unix.Unix_error _ -> ())
    (fun () ->
      let cache = Cache.create ~max_entries:Serve_wl.max_entries ~shards:1 ~dir () in
      let fp = Config.fingerprint (Check.o3sw 1) in
      let art src =
        List.hd (Pipeline.artifacts (Pipeline.compile_source (Check.o3sw 1) (Pipeline.Src src)))
      in
      let warm = Array.init Inputs.working_set (fun i -> Inputs.serve_unit (Inputs.warm_salt ~seed i)) in
      let arts = Array.map art warm in
      let key = ref [] and find = ref [] and link = ref [] and store = ref [] in
      let time r f =
        let v, dt = Measure.timed f in
        r := (dt *. 1e6) :: !r;
        v
      in
      let keys = Array.map (fun src -> time key (fun () -> Cache.key ~config_fp:fp ~source:src ~data_base:0)) warm in
      Array.iteri (fun i k -> time store (fun () -> Cache.store cache k arts.(i))) keys;
      for i = 0 to 1599 do
        Measure.attempt tally;
        if i mod 8 = 7 then begin
          let src = Inputs.serve_unit (Inputs.cold_salt ~seed i) in
          let k = time key (fun () -> Cache.key ~config_fp:fp ~source:src ~data_base:0) in
          time store (fun () -> Cache.store cache k arts.(i mod Inputs.working_set))
        end
        else
          match time find (fun () -> Cache.find cache keys.(i mod Inputs.working_set)) with
          | Some a -> ignore (time link (fun () -> Pipeline.link_units [ a ]))
          | None -> Measure.fail tally "working-set unit %d was evicted" (i mod Inputs.working_set)
      done;
      [ ("cache.key_us", Stats.sorted !key);
        ("cache.find_hit_us", Stats.sorted !find);
        ("cache.store_us", Stats.sorted !store);
        ("cache.link_hit_us", Stats.sorted !link) ])

(* per-call microseconds of [f], over 15 batches of 200 calls *)
let per_call f =
  Stats.sorted
    (List.init 15 (fun _ ->
         let (), dt = Measure.timed (fun () -> for _ = 1 to 200 do f () done) in
         dt *. 1e6 /. 200.))

(** Encode and decode of a request and its reply, and the two registry
    snapshots plus diff the daemon takes around each request. *)
let codec_and_snapshot ~seed reply =
  let req = Serve_wl.build_req 0 (Inputs.serve_unit (Inputs.warm_salt ~seed 0)) in
  let codec =
    per_call (fun () ->
        ignore (Protocol.decode_request (Protocol.encode_request req));
        ignore (Protocol.decode_reply (Protocol.encode_reply reply)))
  in
  Metrics.enable ();
  ignore (Pipeline.compile_source (Check.o3sw 1) (Pipeline.Src (Inputs.serve_unit 0)));
  let snapshot =
    per_call (fun () ->
        let before = Metrics.snapshot () in
        ignore (Metrics.diff before (Metrics.snapshot ())))
  in
  Metrics.disable ();
  [ ("protocol.codec_us", codec); ("obs.snapshot_us", snapshot) ]

(** {2 The traced run} *)

(** Every per-layer metric with its unit, in report order. *)
let metrics =
  [ ("frontend.lex_us", "us"); ("frontend.parse_us", "us");
    ("frontend.lower_us", "us"); ("frontend.tokens", "count");
    ("ir.instrs", "count"); ("core.callgraph_us", "us");
    ("core.allocate_us", "us"); ("core.liveness_us", "us");
    ("core.interference_us", "us"); ("core.shrinkwrap_us", "us");
    ("core.procs", "count"); ("core.waves", "count");
    ("core.ranges_spilled", "count"); ("codegen.layout_us", "us");
    ("codegen.emit_us", "us"); ("codegen.link_us", "us");
    ("codegen.objfile_write_us", "us"); ("codegen.objfile_read_us", "us");
    ("compiler.compile_us", "us"); ("compiler.layer_sum_ratio", "ratio");
    ("cache.key_us", "us"); ("cache.find_hit_us", "us");
    ("cache.store_us", "us"); ("cache.link_hit_us", "us");
    ("cache.hit_ratio", "ratio"); ("cache.evictions", "count");
    ("sim.decode_us", "us"); ("sim.execute_us", "us");
    ("sim.mcycles_per_s", "Mcycles/s"); ("server.queue_wait_us", "us");
    ("server.service_hit_us", "us"); ("server.service_miss_us", "us");
    ("server.reply_us", "us"); ("server.hit_layer_ratio", "ratio");
    ("protocol.codec_us", "us"); ("obs.snapshot_us", "us");
    ("trace.p50_ms", "ms") ]

(* the programs a workload compiles and runs *)
let units ~seed = function
  | "serve" ->
      List.init Inputs.working_set (fun i ->
          (Printf.sprintf "unit%d" i, Inputs.serve_unit (Inputs.warm_salt ~seed i)))
  | _ -> Inputs.table1

let run tally ~workload ~golden ~pawnc ~seed ~seconds =
  let jobs =
    match workload with
    | "compile" -> Compile_wl.jobs
    | "simulate" | "serve" -> List.map (fun (n, s) -> (n, Check.o3sw 1, s)) (units ~seed workload)
    | w -> raise (Arg.Bad ("unknown workload " ^ w))
  in
  let compile, compile_traced = compile_phases tally jobs ~budget:(0.35 *. seconds) in
  let programs =
    List.filter_map
      (fun (name, src) ->
        Measure.guard tally name (fun () ->
            (name, Pipeline.compile_source (Check.o3sw 1) (Pipeline.Src src))))
      (units ~seed workload)
  in
  let sim, sim_traced = sim_phases tally ~golden programs ~budget:(0.25 *. seconds) in
  let server, reply, hits = serve_phases tally ~pawnc ~seed ~budget:(0.3 *. seconds) in
  let cache = cache_calls tally ~seed in
  let codec = codec_and_snapshot ~seed reply in
  let m = compile @ sim @ server @ cache @ codec in
  let get n =
    match List.assoc_opt n m with
    | Some a when Array.length a > 0 -> Stats.median a
    | _ -> Float.nan
  in
  let hit_layer =
    (get "cache.key_us" +. get "cache.find_hit_us" +. get "cache.link_hit_us")
    /. get "server.service_hit_us"
  in
  let traced =
    match workload with
    | "compile" -> compile_traced
    | "simulate" -> sim_traced
    | _ -> hits
  in
  let m =
    m @ [ ("server.hit_layer_ratio", [| hit_layer |]); ("trace.p50_ms", traced) ]
  in
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name m with
      | Some a when Array.length a > 0 -> (Measure.metric name unit (Stats.median a), Some a)
      | _ ->
          Measure.fail tally "no samples for %s" name;
          (Measure.metric name unit 0., None))
    metrics
