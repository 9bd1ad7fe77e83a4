(** Profile-guided inlining tests: the PWNP artifact round-trips
    bit-exactly and rejects every damage class (truncation, bit flips,
    version skew, trailing bytes); stale profiles (wrong source, wrong
    configuration) are rejected as [Profile]-phase diagnostics; the
    cache key absorbs the profile digest and the inline budget; and the
    optimization itself never changes observable behavior — across every
    workload at -O2 and -O3+sw, under -j1/-j4, and over a stream of
    generated programs. *)

module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Diag = Chow_frontend.Diag
module Profile = Chow_sim.Profile
module Sim = Chow_sim.Sim
module Metrics = Chow_obs.Metrics
module W = Chow_workloads.Workloads

(* ----- helpers ----- *)

let counter_value name =
  match List.assoc_opt name (Metrics.dump ()) with Some v -> v | None -> 0

let with_metrics f =
  Metrics.reset ();
  Metrics.enable ();
  Fun.protect ~finally:Metrics.disable f

(** Measure a penalty profile of [src] under [config] and distill it to
    an artifact, exactly as [pawnc profile --emit] does. *)
let measure ?(config = Config.o3_sw) src =
  let compiled = Pipeline.compile_source config (Pipeline.Src src) in
  let r = Pipeline.profile_penalty compiled in
  Profile.artifact
    ~source_digest:(Pipeline.source_digest [ src ])
    ~config_fp:(Config.fingerprint config)
    (Pipeline.program compiled) r

let pgo_of ?budget ?(config = Config.o3_sw) src =
  Pipeline.pgo ?budget ~config ~srcs:[ src ] (measure ~config src)

(* ----- artifact serialization ----- *)

let random_artifact rng =
  let str () =
    String.init (1 + Random.State.int rng 12) (fun _ ->
        Char.chr (33 + Random.State.int rng 94))
  in
  let row _ =
    {
      Profile.r_caller = str ();
      r_callee = str ();
      r_ordinal = Random.State.int rng 8;
      r_calls = Random.State.int rng 10_000;
      r_penalty = Random.State.int rng 100_000;
      r_cycles = Random.State.int rng 1_000_000;
    }
  in
  {
    Profile.a_source_digest = Digest.string (str ());
    a_config_fp = str ();
    a_rows = List.init (Random.State.int rng 20) row;
  }

let test_roundtrip_fuzz () =
  for seed = 0 to 24 do
    let rng = Random.State.make [| seed |] in
    let a = random_artifact rng in
    let bytes = Profile.write_artifact a in
    let b = Profile.read_artifact bytes in
    if a <> b then Alcotest.failf "seed %d: artifact did not round-trip" seed;
    (* serialization is canonical: re-writing the read-back value is
       bit-exact, so the digest in the cache key is stable *)
    Alcotest.(check string)
      (Printf.sprintf "seed %d: bit-exact" seed)
      bytes (Profile.write_artifact b)
  done

let expect_corrupt what bytes =
  match Profile.read_artifact bytes with
  | _ -> Alcotest.failf "%s: accepted damaged artifact" what
  | exception Profile.Corrupt _ -> ()

let test_rejects_damage () =
  let rng = Random.State.make [| 42 |] in
  let bytes = Profile.write_artifact (random_artifact rng) in
  let n = String.length bytes in
  (* truncation at every boundary class: inside the magic, the header,
     and the payload *)
  List.iter
    (fun k -> expect_corrupt (Printf.sprintf "truncated to %d" k)
        (String.sub bytes 0 k))
    [ 0; 2; 7; 14; 27; n - 1 ];
  (* a single flipped byte anywhere must be caught *)
  for i = 0 to n - 1 do
    let b = Bytes.of_string bytes in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
    expect_corrupt (Printf.sprintf "byte %d flipped" i) (Bytes.to_string b)
  done;
  (* trailing garbage *)
  expect_corrupt "trailing bytes" (bytes ^ "\x00");
  (* version skew: a well-formed container from the future *)
  let skewed = Bytes.of_string bytes in
  Bytes.set skewed 4 (Char.chr (Char.code (Bytes.get skewed 4) + 1));
  expect_corrupt "version skew" (Bytes.to_string skewed);
  (* a valid digest around two empty strings and a row count with the
     sign bit set *)
  expect_corrupt "negative count"
    (Test_objfile.reseal ~like:bytes
       ("\000\000" ^ Test_objfile.negative_varint))

let test_save_load_atomic () =
  let rng = Random.State.make [| 7 |] in
  let a = random_artifact rng in
  let path = Filename.temp_file "chow88-pgo" ".pwnp" in
  Profile.save_artifact ~path a;
  Alcotest.(check bool) "load = save" true (Profile.load_artifact path = a);
  Sys.remove path

(* ----- staleness validation ----- *)

let tiny_src =
  {|
proc double(x) { return x + x; }
proc main() { print(double(21)); }
|}

let expect_profile_error what f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted a stale profile" what
  | exception Diag.Error e ->
      Alcotest.(check string) (what ^ ": phase") "profile"
        (Diag.phase_name e.Diag.phase)

let test_rejects_stale () =
  let a = measure tiny_src in
  (* wrong sources *)
  expect_profile_error "edited source" (fun () ->
      Pipeline.pgo ~config:Config.o3_sw
        ~srcs:[ tiny_src ^ "// edited\n" ]
        a);
  (* wrong configuration *)
  expect_profile_error "other config" (fun () ->
      Pipeline.pgo ~config:Config.baseline ~srcs:[ tiny_src ] a);
  (* a corrupt file through load_pgo is the same diagnostic *)
  let path = Filename.temp_file "chow88-pgo" ".pwnp" in
  let oc = open_out_bin path in
  output_string oc "PWNP not really";
  close_out oc;
  expect_profile_error "corrupt file" (fun () ->
      Pipeline.load_pgo ~config:Config.o3_sw ~srcs:[ tiny_src ] path);
  Sys.remove path;
  (* a crafted file with a valid digest and a negative row count is the
     same diagnostic, and through the CLI a user error: exit 2, never an
     uncaught exception *)
  Test_server.with_dir "pgoneg" @@ fun dir ->
  let src = Filename.concat dir "tiny.pawn"
  and prof = Filename.concat dir "bad.pawnp"
  and err = Filename.concat dir "stderr" in
  Test_server.write_file src tiny_src;
  Out_channel.with_open_bin prof (fun oc ->
      output_string oc
        (Test_objfile.reseal
           ~like:(Profile.write_artifact a)
           ("\000\000" ^ Test_objfile.negative_varint)));
  expect_profile_error "negative row count" (fun () ->
      Pipeline.load_pgo ~config:Config.o3_sw ~srcs:[ tiny_src ] prof);
  let code =
    Sys.command
      (Printf.sprintf "%s run %s --O3 --pgo %s >/dev/null 2>%s"
         (Filename.quote (Test_server.bin_exe "pawnc"))
         (Filename.quote src) (Filename.quote prof) (Filename.quote err))
  in
  Alcotest.(check int) "pawnc run --pgo CRAFTED exits 2" 2 code;
  let msg = In_channel.with_open_bin err In_channel.input_all in
  Alcotest.(check bool)
    (Printf.sprintf "diagnostic %S names the damage" msg)
    true
    (Test_server.contains "corrupt profile artifact" msg);
  (* and a non-positive budget is a programming error, not a diagnostic *)
  match Pipeline.pgo ~budget:0. ~config:Config.o3_sw ~srcs:[ tiny_src ] a with
  | _ -> Alcotest.fail "budget 0 accepted"
  | exception Invalid_argument _ -> ()

(* the profile -> build loop through the CLI: [profile --emit] reports
   the rows it wrote, and [run --pgo --inline-budget 2] prints the plain
   run's output with fewer calls and no more save/restore operations *)
let test_cli_pgo () =
  Test_server.with_src "clipgo" Test_server.calls_src @@ fun dir src ->
  let prof = Filename.concat dir "p.pwnp" in
  let emitted =
    Test_server.run_pawnc dir [ "profile"; src; "--O3"; "--emit"; prof ]
  in
  Alcotest.(check bool)
    "profile --emit reports its rows" true
    (Test_server.contains "call-site rows" emitted);
  let plain = Test_server.run_pawnc dir [ "run"; src; "--O3"; "--counters" ] in
  let pgo =
    Test_server.run_pawnc dir
      [
        "run"; src; "--O3"; "--pgo"; prof; "--inline-budget"; "2";
        "--counters";
      ]
  in
  Alcotest.(check (list string))
    "same program output"
    (Test_server.program_output plain)
    (Test_server.program_output pgo);
  let calls = Test_server.int_row ~prefix:"calls:" in
  Alcotest.(check bool)
    (Printf.sprintf "inlining removed calls (%d < %d)" (calls pgo)
       (calls plain))
    true
    (calls pgo < calls plain);
  Alcotest.(check bool)
    "no more save/restore operations" true
    (Test_server.save_restore_ops pgo <= Test_server.save_restore_ops plain)

(* ----- cache-key interaction ----- *)

(** A --pgo build must never alias a plain build (or a --pgo build under
    a different profile or budget) in the artifact cache. *)
let test_cache_key_absorbs_profile () =
  Test_objfile.with_cache "pgo" @@ fun cache ->
  let srcs = [ tiny_src ] in
  let pgo = Pipeline.pgo ~config:Config.o3_sw ~srcs (measure tiny_src) in
  ignore (Pipeline.compile_source ~cache Config.o3_sw (Pipeline.Srcs srcs));
  (* same sources under --pgo: the plain artifact must not be reused *)
  let hits, misses =
    with_metrics (fun () ->
        ignore
          (Pipeline.compile_source ~cache ~pgo Config.o3_sw
             (Pipeline.Srcs srcs));
        (counter_value "cache.hit", counter_value "cache.miss"))
  in
  Alcotest.(check int) "pgo build does not hit plain artifacts" 0 hits;
  Alcotest.(check int) "pgo build recompiles" 1 misses;
  (* identical pgo build: warm *)
  let hits =
    with_metrics (fun () ->
        ignore
          (Pipeline.compile_source ~cache ~pgo Config.o3_sw
             (Pipeline.Srcs srcs));
        counter_value "cache.hit")
  in
  Alcotest.(check int) "identical pgo build hits" 1 hits;
  (* a different budget changes the key *)
  let pgo_wide =
    Pipeline.pgo ~budget:3.0 ~config:Config.o3_sw ~srcs (measure tiny_src)
  in
  let hits =
    with_metrics (fun () ->
        ignore
          (Pipeline.compile_source ~cache ~pgo:pgo_wide Config.o3_sw
             (Pipeline.Srcs srcs));
        counter_value "cache.hit")
  in
  Alcotest.(check int) "different budget misses" 0 hits;
  (* a different profile (measured under other dynamics) changes the key:
     synthesize one with an extra row, so the digest differs even when
     the measured table is empty *)
  let a = measure tiny_src in
  let doctored =
    {
      a with
      Profile.a_rows =
        {
          Profile.r_caller = "phantom";
          r_callee = "phantom_leaf";
          r_ordinal = 0;
          r_calls = 1;
          r_penalty = 0;
          r_cycles = 1;
        }
        :: a.Profile.a_rows;
    }
  in
  let pgo_doctored =
    Pipeline.pgo ~config:Config.o3_sw ~srcs doctored
  in
  let hits =
    with_metrics (fun () ->
        ignore
          (Pipeline.compile_source ~cache ~pgo:pgo_doctored Config.o3_sw
             (Pipeline.Srcs srcs));
        counter_value "cache.hit")
  in
  Alcotest.(check int) "different profile digest misses" 0 hits

(* ----- behavior preservation ----- *)

let run_with ?pgo config src =
  (Pipeline.run (Pipeline.compile_source ?pgo config (Pipeline.Src src)))
    .Sim.output

(** Every workload, plain vs --pgo, at -O2 and -O3+sw: identical output,
    and the PGO build executes no more calls (inlining only removes call
    instructions). *)
let test_workload (w : W.t) () =
  List.iter
    (fun config ->
      let a = measure ~config w.W.source in
      let pgo =
        Pipeline.pgo ~budget:2.0 ~config ~srcs:[ w.W.source ] a
      in
      let plain =
        Pipeline.run (Pipeline.compile_source config (Pipeline.Src w.W.source))
      in
      let opt =
        Pipeline.run
          (Pipeline.compile_source ~pgo config (Pipeline.Src w.W.source))
      in
      Alcotest.(check (list int))
        (w.W.name ^ " output under " ^ config.Config.name)
        plain.Sim.output opt.Sim.output;
      Alcotest.(check bool)
        (Printf.sprintf "%s calls under %s: %d <= %d" w.W.name
           config.Config.name opt.Sim.calls plain.Sim.calls)
        true
        (opt.Sim.calls <= plain.Sim.calls);
      (* inlining may never add save/restore traffic *)
      let saves (o : Sim.outcome) = o.Sim.save_loads + o.Sim.save_stores in
      Alcotest.(check bool)
        (Printf.sprintf "%s save/restore ops under %s: %d <= %d" w.W.name
           config.Config.name (saves opt) (saves plain))
        true
        (saves opt <= saves plain))
    [ Config.baseline; Config.o3_sw ]

(** The PGO pipeline is deterministic across allocator parallelism: a
    -j1 and a -j4 build under the same profile link identical images. *)
let test_parallel_deterministic () =
  let src =
    match W.find "uopt" with
    | Some w -> w.W.source
    | None -> Alcotest.fail "unknown workload uopt"
  in
  let image jobs =
    let config = Config.with_jobs jobs Config.o3_sw in
    let pgo = pgo_of ~config src in
    Pipeline.program (Pipeline.compile_source ~pgo config (Pipeline.Src src))
  in
  Alcotest.(check bool) "-j1 = -j4" true (image 1 = image 4)

(** Generated programs: profile-guided inlining must preserve output on
    arbitrary call shapes (recursion, address-taken procedures, wide
    arities) — the refusal classes make those sites safe, not wrong. *)
let prop_random_pgo =
  QCheck.Test.make ~count:40
    ~name:"pgo builds behave identically on generated programs"
    (QCheck.make (QCheck.Gen.int_bound 1_000_000) ~print:(fun seed ->
         Printf.sprintf "seed %d:\n%s" seed (Genprog.generate ~seed ())))
    (fun seed ->
      let src = Genprog.generate ~seed () in
      let config = Config.o3_sw in
      let pgo = pgo_of ~budget:2.0 ~config src in
      run_with config src = run_with ~pgo config src)

let workload_cases =
  List.map
    (fun w ->
      Alcotest.test_case (w.W.name ^ " (plain = pgo)") `Slow (test_workload w))
    W.all

let suite =
  ( "pgo",
    [
      Alcotest.test_case "artifact round-trip fuzz" `Quick test_roundtrip_fuzz;
      Alcotest.test_case "artifact rejects damage" `Quick test_rejects_damage;
      Alcotest.test_case "artifact save/load" `Quick test_save_load_atomic;
      Alcotest.test_case "stale profiles rejected" `Quick test_rejects_stale;
      Alcotest.test_case "cli: profile --emit, run --pgo" `Quick test_cli_pgo;
      Alcotest.test_case "cache key absorbs profile and budget" `Quick
        test_cache_key_absorbs_profile;
      Alcotest.test_case "parallel determinism (uopt)" `Slow
        test_parallel_deterministic;
    ]
    @ workload_cases
    @ [ QCheck_alcotest.to_alcotest prop_random_pgo ] )
