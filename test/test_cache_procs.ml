(** Cross-process artifact-cache test, in its own executable because
    [Unix.fork] is illegal once any domain has been spawned (and the main
    test binary's earlier suites spawn domains).

    Two processes share one cache directory, each with its own handle —
    with different shard counts, since the disk layout is shard-agnostic.
    Stores are atomic tmp-plus-rename replaces, so both sides must only
    ever observe intact artifacts: no torn reads, no corrupt entries, and
    the atomic counters in the parent must sum exactly. *)

module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Cache = Chow_compiler.Cache
module Metrics = Chow_obs.Metrics

let two_units =
  [
    {|
extern proc square(x);
proc main() { print(square(5)); }
|};
    {|
export proc square(x) { return x * x; }
|};
  ]

let conc_keys = List.init 16 (fun i -> Printf.sprintf "conc%02x" i)

let counter_value name =
  match List.assoc_opt name (Metrics.dump ()) with Some v -> v | None -> 0

let hammer (cache : Cache.t) art =
  let ok = ref true in
  for _round = 1 to 30 do
    List.iter
      (fun k ->
        Cache.store cache k art;
        match Cache.find cache k with
        | Some a -> if a <> art then ok := false
        | None -> ok := false)
      conc_keys
  done;
  !ok

let sorted_entries cache =
  List.sort compare
    (List.filter
       (fun n -> Filename.check_suffix n ".pawno")
       (Array.to_list (Sys.readdir (Cache.dir cache))))

let test_concurrent_processes () =
  let dir = Filename.temp_file "chow88-procs" ".cache" in
  Sys.remove dir;
  let cache = Cache.create ~shards:4 ~dir () in
  (* jobs = 1 in every stock config: no domains, so the fork below is
     legal *)
  let c = Pipeline.compile_source Config.o3_sw (Pipeline.Srcs two_units) in
  let art = List.hd (Pipeline.artifacts c) in
  match Unix.fork () with
  | 0 ->
      (* the child opens its own handle on the same directory *)
      let child_ok =
        try hammer (Cache.create ~shards:2 ~dir ()) art with _ -> false
      in
      Unix._exit (if child_ok then 0 else 1)
  | pid ->
      (* the parent reaps the child before any check can fail, so the
         directory is idle when it is removed *)
      Fun.protect ~finally:(fun () ->
          Array.iter
            (fun n -> Sys.remove (Filename.concat dir n))
            (Sys.readdir dir);
          Unix.rmdir dir)
      @@ fun () ->
      Metrics.reset ();
      Metrics.enable ();
      let parent_ok = hammer cache art in
      let corrupt = counter_value "cache.corrupt" in
      let hits = counter_value "cache.hit" in
      Metrics.disable ();
      let _, status = Unix.waitpid [] pid in
      Alcotest.(check bool)
        "child saw only intact artifacts" true
        (status = Unix.WEXITED 0);
      Alcotest.(check bool) "parent saw only intact artifacts" true parent_ok;
      Alcotest.(check int) "nothing corrupt in parent" 0 corrupt;
      Alcotest.(check int)
        "parent hits sum exactly"
        (30 * List.length conc_keys)
        hits;
      (* the directory holds exactly the shared working set, every entry
         intact *)
      Alcotest.(check int)
        "no stray or torn entries"
        (List.length conc_keys)
        (List.length (sorted_entries cache));
      List.iter
        (fun k ->
          match Cache.find cache k with
          | Some a when a = art -> ()
          | _ -> Alcotest.failf "%s: not intact after both processes" k)
        conc_keys

let () =
  Alcotest.run "chow88-cache-procs"
    [
      ( "cache-procs",
        [
          Alcotest.test_case "cache: two processes, one directory" `Quick
            test_concurrent_processes;
        ] );
    ]
