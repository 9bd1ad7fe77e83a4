(** Unit-artifact and incremental-cache tests: the binary format
    round-trips bit-exactly and rejects damage; the content-addressed
    cache serves warm rebuilds without a single allocation yet degrades
    silently to recompilation on corruption; the result-returning
    [compile_result] reifies the three front-end failure modes as one
    {!Chow_frontend.Diag.error}. *)

module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Cache = Chow_compiler.Cache
module Objfile = Chow_codegen.Objfile
module Machine = Chow_machine.Machine
module Diag = Chow_frontend.Diag
module Sim = Chow_sim.Sim
module Event = Chow_obs.Event
module Metrics = Chow_obs.Metrics

let unit_main =
  {|
extern proc square(x);
extern proc cube(x);
var seed = 7;
proc main() {
  print(square(5) + seed);
  print(cube(3));
}
|}

let unit_math =
  {|
var scale = 2;
export proc square(x) { return x * x * scale / 2; }
export proc cube(x) { return x * square(x); }
|}

let two_units = [ unit_main; unit_math ]

(* [f] on a fresh empty cache in a unique temp directory, removed when
   [f] ends, so runs never collide and nothing is left behind *)
let with_cache ?max_entries ?shards name f =
  Test_server.with_dir name (fun dir ->
      f (Cache.create ?max_entries ?shards ~dir ()))

let counter_value name =
  match List.assoc_opt name (Metrics.dump ()) with Some v -> v | None -> 0

(** Run [f] with the metrics registry armed and reset, returning [f ()]
    paired with a lookup into the counters it produced. *)
let with_metrics f =
  Metrics.reset ();
  Metrics.enable ();
  Fun.protect ~finally:Metrics.disable f

(* ----- binary format ----- *)

let test_roundtrip_fuzz () =
  for seed = 0 to 11 do
    let src = Genprog.generate ~seed () in
    let c = Pipeline.compile_source Config.o3_sw (Pipeline.Src src) in
    let arts = Pipeline.artifacts c in
    let arts' = List.map (fun a -> Objfile.read (Objfile.write a)) arts in
    if arts <> arts' then
      Alcotest.failf "seed %d: artifact changed across write/read" seed;
    if Pipeline.link_units arts' <> Pipeline.program c then
      Alcotest.failf "seed %d: relinked program differs" seed
  done

let test_save_load_file () =
  let c = Pipeline.compile_source Config.o3_sw (Pipeline.Srcs two_units) in
  let art = List.nth (Pipeline.artifacts c) 1 in
  let path = "roundtrip.pawno" in
  Objfile.save ~path art;
  let art' = Objfile.load path in
  Sys.remove path;
  Alcotest.(check bool) "file round-trip" true (art = art');
  (* a save that fails — here the rename, onto a non-empty directory —
     raises and leaves no temp file behind: the cache counts only *.pawno
     entries, so a leaked temp file would never be evicted *)
  Test_server.with_dir "failsave" @@ fun dir ->
  let path = Filename.concat dir "k.pawno" in
  Sys.mkdir path 0o755;
  Out_channel.with_open_bin (Filename.concat path "occupant") ignore;
  (match Objfile.save ~path art with
  | () -> Alcotest.fail "save over a non-empty directory succeeded"
  | exception Sys_error _ -> ());
  Alcotest.(check (list string))
    "only the directory remains" [ "k.pawno" ]
    (Array.to_list (Sys.readdir dir))

let expect_corrupt what bytes =
  match Objfile.read bytes with
  | _ -> Alcotest.failf "%s: expected Corrupt" what
  | exception Objfile.Corrupt _ -> ()

(* a 9-byte LEB128 varint with the sign bit set: a negative length or
   count that must be refused before it reaches String.sub or List.init *)
let negative_varint = "\xff\xff\xff\xff\xff\xff\xff\xff\x7f"

(** [reseal ~like payload] wraps [payload] in the magic and version word
    of the container [like], with its true length and MD5, so a crafted
    payload passes every header check and reaches the decoder. *)
let reseal ~like payload =
  let le32 n = String.init 4 (fun i -> Char.chr ((n lsr (8 * i)) land 0xff)) in
  String.sub like 0 8
  ^ le32 (String.length payload)
  ^ Digest.string payload ^ payload

let test_rejects_damage () =
  let c = Pipeline.compile_source Config.o3_sw (Pipeline.Srcs two_units) in
  let bytes = Objfile.write (List.hd (Pipeline.artifacts c)) in
  let n = String.length bytes in
  expect_corrupt "empty" "";
  expect_corrupt "bad magic" ("XXXX" ^ String.sub bytes 4 (n - 4));
  expect_corrupt "truncated header" (String.sub bytes 0 10);
  expect_corrupt "truncated payload" (String.sub bytes 0 (n - 5));
  expect_corrupt "trailing garbage" (bytes ^ "\x00");
  (* flip one byte in the version word, the checksum, and the payload *)
  List.iter
    (fun pos ->
      let b = Bytes.of_string bytes in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x41));
      expect_corrupt (Printf.sprintf "bit flip at %d" pos) (Bytes.to_string b))
    [ 5; 14; 30; n - 1 ];
  (* a valid digest around a procedure count with the sign bit set *)
  expect_corrupt "negative count"
    (reseal ~like:bytes negative_varint)

let test_tampered_contract_rejected () =
  (* a non-exported, non-recursive helper is closed under IPRA, so its
     artifact carries a usage mask for callers to consume *)
  let src =
    {|
proc helper(a, b) { var t = a * b; return t + a; }
proc main() { print(helper(3, 4)); }
|}
  in
  let c = Pipeline.compile_source Config.o3_sw (Pipeline.Src src) in
  let arts = Pipeline.artifacts c in
  Alcotest.(check bool)
    "workload has a closed procedure" true
    (List.exists
       (fun (a : Objfile.t) ->
         List.exists (fun p -> p.Objfile.pa_usage <> None) a.Objfile.o_procs)
       arts);
  Alcotest.(check bool)
    "honest artifacts pass" true
    (List.for_all (fun a -> Objfile.contract_check a = Ok ()) arts);
  (* lie about the preservation contract of a closed proc that publishes a
     usage mask; the mask is authoritative, so the lie must be caught *)
  let tampered =
    List.map
      (fun (a : Objfile.t) ->
        {
          a with
          Objfile.o_procs =
            List.map
              (fun (p : Objfile.proc_art) ->
                if p.Objfile.pa_usage = None then p
                else
                  {
                    p with
                    Objfile.pa_preserved =
                      (if p.Objfile.pa_preserved = [] then
                         [ List.hd Machine.callee_saved ]
                       else []);
                  })
              a.Objfile.o_procs;
        })
      arts
  in
  Alcotest.(check bool)
    "tampering detected" true
    (List.exists
       (fun a -> Result.is_error (Objfile.contract_check a))
       tampered);
  match Pipeline.link_units tampered with
  | _ -> Alcotest.fail "link_units accepted a tampered contract"
  | exception Invalid_argument _ -> ()

(* An artifact whose code branches to a label its procedure never
   defines still carries a valid digest (the writer computes it), so only
   the linker can catch it: [pawnc link] must answer a named link error
   and exit 2, in range or far past the procedure's item count. *)
let test_dangling_label_exits_2 () =
  let pawnc = Filename.quote (Test_server.bin_exe "pawnc") in
  Test_server.with_dir "dangling" @@ fun dir ->
  let art =
    match
      Pipeline.artifacts
        (Pipeline.compile_source Config.baseline
           (Pipeline.Src "proc main() { print(1); }"))
    with
    | [ a ] -> a
    | _ -> Alcotest.fail "expected one artifact"
  in
  List.iter
    (fun label ->
      let tampered =
        {
          art with
          Objfile.o_procs =
            List.map
              (fun (p : Objfile.proc_art) ->
                let code = p.Objfile.pa_code in
                {
                  p with
                  Objfile.pa_code =
                    {
                      code with
                      Chow_codegen.Asm.pc_items =
                        code.Chow_codegen.Asm.pc_items
                        @ [ Chow_codegen.Asm.Inst (Chow_codegen.Asm.J label) ];
                    };
                })
              art.Objfile.o_procs;
        }
      in
      let path = Filename.concat dir (Printf.sprintf "l%d.pawno" label) in
      Objfile.save ~path tampered;
      let err = Filename.concat dir "stderr" in
      let code =
        Sys.command
          (Printf.sprintf "%s link --run %s >/dev/null 2>%s" pawnc
             (Filename.quote path) (Filename.quote err))
      in
      Alcotest.(check int) (Printf.sprintf "label %d: exit 2" label) 2 code;
      let msg = In_channel.with_open_bin err In_channel.input_all in
      Alcotest.(check string)
        (Printf.sprintf "label %d: diagnostic" label)
        (Printf.sprintf
           "link error: main: branch to label %d, which it does not define\n"
           label)
        msg)
    [ 1; 1 lsl 40 ]

(* ----- incremental cache ----- *)

let test_warm_rebuild_identical_and_allocation_free () =
  let cold = Pipeline.compile_source Config.o3_sw (Pipeline.Srcs two_units) in
  with_cache "warm" @@ fun cache ->
  let seed =
    Pipeline.compile_source ~cache Config.o3_sw (Pipeline.Srcs two_units)
  in
  Alcotest.(check bool)
    "cold cached build = cache-less build" true
    (Pipeline.program seed = Pipeline.program cold);
  Event.reset ();
  Event.enable_trace ();
  let warm =
    with_metrics (fun () ->
        Pipeline.compile_source ~cache Config.o3_sw (Pipeline.Srcs two_units))
  in
  let hits = counter_value "cache.hit"
  and misses = counter_value "cache.miss" in
  Event.disable_trace ();
  let trace = Event.chrome_json () in
  Event.reset ();
  Alcotest.(check bool)
    "warm build byte-identical" true
    (Pipeline.program warm = Pipeline.program cold);
  Alcotest.(check int) "every unit a hit" (List.length two_units) hits;
  Alcotest.(check int) "no misses" 0 misses;
  Alcotest.(check (list Alcotest.reject)) "no procedure allocated" []
    (Pipeline.allocs warm);
  Alcotest.(check bool)
    "no allocate-unit span in the warm trace" false
    (Test_server.contains "allocate-unit" trace);
  Alcotest.(check bool)
    "cache-resolve span present" true
    (Test_server.contains "cache-resolve" trace)

(* the same contract through [pawnc build --cache-dir --stats]: the
   second build of the two units is served entirely from the cache *)
let test_cli_warm_build () =
  Test_server.with_dir "cliwarm" @@ fun dir ->
  let units =
    List.mapi
      (fun i src ->
        let path = Filename.concat dir (Printf.sprintf "u%d.pawn" i) in
        Test_server.write_file path src;
        path)
      two_units
  in
  let build () =
    Test_server.run_pawnc dir
      (("build" :: units)
      @ [ "--O3"; "--cache-dir"; Filename.concat dir "cache"; "--stats" ])
  in
  ignore (build ());
  let warm = build () in
  Alcotest.(check int)
    "warm cache.hit = units" (List.length two_units)
    (Test_server.int_row ~prefix:"cache.hit " warm);
  Alcotest.(check int)
    "warm cache.miss = 0" 0
    (Test_server.int_row ~prefix:"cache.miss " warm)

let test_config_fingerprint_misses () =
  with_cache "fingerprint" @@ fun cache ->
  ignore (Pipeline.compile_source ~cache Config.o3_sw (Pipeline.Srcs two_units));
  let hits =
    with_metrics (fun () ->
        ignore
          (Pipeline.compile_source ~cache Config.baseline
             (Pipeline.Srcs two_units));
        counter_value "cache.hit")
  in
  Alcotest.(check int) "other config never hits" 0 hits;
  (* jobs is excluded from the fingerprint: allocation is bit-identical
     for every -j, so a -j4 rebuild may reuse -j1 artifacts *)
  let hits_j4 =
    with_metrics (fun () ->
        ignore
          (Pipeline.compile_source ~cache
             (Config.with_jobs 4 Config.o3_sw)
             (Pipeline.Srcs two_units));
        counter_value "cache.hit")
  in
  Alcotest.(check int) "-j4 reuses -j1 artifacts" 2 hits_j4

let test_data_base_shift_misses () =
  with_cache "baseshift" @@ fun cache ->
  ignore (Pipeline.compile_source ~cache Config.o3_sw (Pipeline.Srcs two_units));
  (* grow the first unit's data segment: the second unit's source is
     unchanged but its globals move, and baked absolute addresses make the
     artifact position-dependent — it must miss *)
  let grown = {|
var pad[8];
|} ^ unit_main in
  let hits, misses =
    with_metrics (fun () ->
        ignore
          (Pipeline.compile_source ~cache Config.o3_sw
             (Pipeline.Srcs [ grown; unit_math ]));
        (counter_value "cache.hit", counter_value "cache.miss"))
  in
  Alcotest.(check int) "no unit hits" 0 hits;
  Alcotest.(check int) "both units recompile" 2 misses

let test_disk_corruption_recompiles () =
  with_cache "corrupt" @@ fun cache ->
  let cold =
    Pipeline.compile_source ~cache Config.o3_sw (Pipeline.Srcs two_units)
  in
  (* clobber one stored artifact in place *)
  let victim =
    match
      List.find_opt
        (fun n -> Filename.check_suffix n ".pawno")
        (Array.to_list (Sys.readdir (Cache.dir cache)))
    with
    | Some n -> Filename.concat (Cache.dir cache) n
    | None -> Alcotest.fail "cache is empty after a cold build"
  in
  let oc = open_out_bin victim in
  output_string oc "PWNO garbage";
  close_out oc;
  let rebuilt, (hits, misses, corrupt) =
    with_metrics (fun () ->
        let c =
          Pipeline.compile_source ~cache Config.o3_sw (Pipeline.Srcs two_units)
        in
        ( c,
          ( counter_value "cache.hit",
            counter_value "cache.miss",
            counter_value "cache.corrupt" ) ))
  in
  Alcotest.(check bool)
    "corruption is invisible in the output" true
    (Pipeline.program rebuilt = Pipeline.program cold);
  Alcotest.(check int) "intact unit hits" 1 hits;
  Alcotest.(check int) "clobbered unit recompiles" 1 misses;
  Alcotest.(check int) "corruption counted" 1 corrupt;
  Alcotest.(check bool)
    "offender deleted and restored" true
    (Sys.file_exists victim);
  (* an entry with a valid digest whose procedure count is negative is a
     miss too, counted corrupt and deleted — not an escaping exception
     that fails every build needing it *)
  let crafted = Filename.concat (Cache.dir cache) "crafted.pawno" in
  let like = Objfile.write (List.hd (Pipeline.artifacts cold)) in
  Out_channel.with_open_bin crafted (fun oc ->
      output_string oc (reseal ~like negative_varint));
  let found, corrupt =
    with_metrics (fun () ->
        let found = Cache.find cache "crafted" in
        (found, counter_value "cache.corrupt"))
  in
  Alcotest.(check bool) "crafted entry misses" true (found = None);
  Alcotest.(check int) "crafted entry counted corrupt" 1 corrupt;
  Alcotest.(check bool) "crafted entry deleted" false (Sys.file_exists crafted)

let test_eviction () =
  with_cache ~max_entries:2 "evict" @@ fun cache ->
  let c = Pipeline.compile_source Config.o3_sw (Pipeline.Srcs two_units) in
  let art = List.hd (Pipeline.artifacts c) in
  let evicted =
    with_metrics (fun () ->
        List.iter
          (fun key -> Cache.store cache key art)
          [ "k1"; "k2"; "k3"; "k4" ];
        counter_value "cache.evict")
  in
  let stored =
    List.filter
      (fun n -> Filename.check_suffix n ".pawno")
      (Array.to_list (Sys.readdir (Cache.dir cache)))
  in
  Alcotest.(check int) "bounded store" 2 (List.length stored);
  Alcotest.(check int) "evictions counted" 2 evicted

let sorted_entries cache =
  List.sort compare
    (List.filter
       (fun n -> Filename.check_suffix n ".pawno")
       (Array.to_list (Sys.readdir (Cache.dir cache))))

(** Regression for eviction under mtime ties: filesystem mtimes have
    1-second granularity on some systems, so entries stored within the
    same second used to evict in readdir (i.e. arbitrary) order.  Aging
    is by (mtime, key), so equal mtimes must break the tie by key —
    deterministically, reproducibly across runs. *)
let test_eviction_mtime_tie_break () =
  with_cache "tie" @@ fun unbounded ->
  let c = Pipeline.compile_source Config.o3_sw (Pipeline.Srcs two_units) in
  let art = List.hd (Pipeline.artifacts c) in
  List.iter (fun key -> Cache.store unbounded key art) [ "k1"; "k2"; "k3"; "k4" ];
  (* force an exact four-way mtime tie, older than anything stored next *)
  List.iter
    (fun key ->
      Unix.utimes (Filename.concat (Cache.dir unbounded) (key ^ ".pawno")) 5. 5.)
    [ "k1"; "k2"; "k3"; "k4" ];
  let bounded =
    Cache.create ~max_entries:2 ~dir:(Cache.dir unbounded) ()
  in
  let evicted =
    with_metrics (fun () ->
        Cache.store bounded "k0" art;
        counter_value "cache.evict")
  in
  (* five entries, quota two: the three tied-oldest go, and among the tie
     the smallest KEYS go — k4 survives alongside the fresh k0 *)
  Alcotest.(check (list string))
    "tie broken by key" [ "k0.pawno"; "k4.pawno" ] (sorted_entries bounded);
  Alcotest.(check int) "evictions counted" 3 evicted

(* ----- concurrent access: one directory, many threads / processes ----- *)

let conc_keys = List.init 16 (fun i -> Printf.sprintf "conc%02x" i)

(** Two domains hammering one sharded cache value: every find of a
    pre-stored key must hit with an intact artifact, nothing may be
    flagged corrupt, and the atomic counters must sum exactly. *)
let test_concurrent_domains () =
  with_cache ~shards:4 "domains" @@ fun cache ->
  let c = Pipeline.compile_source Config.o3_sw (Pipeline.Srcs two_units) in
  let art = List.hd (Pipeline.artifacts c) in
  List.iter (fun k -> Cache.store cache k art) conc_keys;
  let rounds = 50 in
  let worker tag () =
    let intact = ref 0 in
    for round = 1 to rounds do
      List.iter
        (fun k ->
          (* re-store under contention, then find: rename is atomic, so a
             racing reader sees a complete artifact either way *)
          if round mod 5 = 0 then Cache.store cache k art;
          match Cache.find cache k with
          | Some a when a = art -> incr intact
          | Some _ -> Alcotest.failf "%s: %s: artifact mangled" tag k
          | None -> Alcotest.failf "%s: %s: pre-stored key missed" tag k)
        conc_keys
    done;
    !intact
  in
  let hits, corrupt =
    with_metrics (fun () ->
        let d1 = Domain.spawn (worker "d1") in
        let d2 = Domain.spawn (worker "d2") in
        let i1 = Domain.join d1 and i2 = Domain.join d2 in
        Alcotest.(check int)
          "every find hit with an intact artifact"
          (2 * rounds * List.length conc_keys)
          (i1 + i2);
        (counter_value "cache.hit", counter_value "cache.corrupt"))
  in
  Alcotest.(check int)
    "hits sum exactly across domains"
    (2 * rounds * List.length conc_keys)
    hits;
  Alcotest.(check int) "nothing corrupt" 0 corrupt

(* the two-PROCESS counterpart of the test above lives in its own
   executable, test_cache_procs.ml: Unix.fork is illegal once any domain
   has been spawned, and earlier suites in this binary spawn domains *)

(* ----- diagnostics ----- *)

let check_error what expected_phase source =
  match Pipeline.compile_result Config.baseline source with
  | Ok _ -> Alcotest.failf "%s: expected an error" what
  | Error (e : Diag.error) ->
      if e.Diag.phase <> expected_phase then
        Alcotest.failf "%s: wrong phase %s" what (Diag.phase_name e.Diag.phase)

let test_compile_result_errors () =
  check_error "stray character" Diag.Lex (Pipeline.Src "proc main() { ? }");
  check_error "broken syntax" Diag.Parse (Pipeline.Src "proc main( {}");
  check_error "undefined variable" Diag.Check
    (Pipeline.Src "proc main() { return nope; }");
  check_error "empty unit list" Diag.Check (Pipeline.Srcs []);
  (match Pipeline.compile_result Config.baseline (Pipeline.Srcs []) with
  | Error e ->
      Alcotest.(check string)
        "empty-list message" "no compilation units" e.Diag.message
  | Ok _ -> Alcotest.fail "Srcs [] accepted");
  match Pipeline.compile_result Config.baseline (Pipeline.Src "proc main() {}")
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid program rejected: %s" (Diag.to_string e)

let test_legacy_aliases_still_raise () =
  (match Pipeline.compile_source Config.baseline (Pipeline.Src "proc main( {}") with
  | _ -> Alcotest.fail "expected Parser.Error"
  | exception Chow_frontend.Parser.Error _ -> ());
  (match Pipeline.compile_source Config.baseline (Pipeline.Srcs []) with
  | _ -> Alcotest.fail "expected Check.Error"
  | exception Chow_frontend.Check.Error msg ->
      Alcotest.(check string) "message" "no compilation units" msg);
  (* the alias surface still compiles real programs *)
  let o =
    Pipeline.run (Pipeline.compile_source Config.o3_sw (Pipeline.Srcs two_units))
  in
  Alcotest.(check (list int)) "aliases still work" [ 32; 27 ] o.Sim.output

let suite =
  ( "objfile",
    [
      Alcotest.test_case "round-trip: fuzzed artifacts bit-exact" `Quick
        test_roundtrip_fuzz;
      Alcotest.test_case "round-trip: save/load file" `Quick
        test_save_load_file;
      Alcotest.test_case "format: damage rejected, never mis-linked" `Quick
        test_rejects_damage;
      Alcotest.test_case "format: tampered contract rejected" `Quick
        test_tampered_contract_rejected;
      Alcotest.test_case "format: dangling label is a link error" `Quick
        test_dangling_label_exits_2;
      Alcotest.test_case "cache: warm rebuild identical, allocation-free"
        `Quick test_warm_rebuild_identical_and_allocation_free;
      Alcotest.test_case "cli: warm build --cache-dir served from the cache"
        `Quick test_cli_warm_build;
      Alcotest.test_case "cache: config fingerprint keys the store" `Quick
        test_config_fingerprint_misses;
      Alcotest.test_case "cache: data-base shift forces a miss" `Quick
        test_data_base_shift_misses;
      Alcotest.test_case "cache: disk corruption degrades to recompile"
        `Quick test_disk_corruption_recompiles;
      Alcotest.test_case "cache: max_entries evicts oldest" `Quick
        test_eviction;
      Alcotest.test_case "cache: eviction breaks mtime ties by key" `Quick
        test_eviction_mtime_tie_break;
      Alcotest.test_case "cache: two domains, one directory" `Quick
        test_concurrent_domains;
      Alcotest.test_case "diag: compile_result reifies front-end errors"
        `Quick test_compile_result_errors;
      Alcotest.test_case "diag: legacy exceptions still raise" `Quick
        test_legacy_aliases_still_raise;
    ] )
