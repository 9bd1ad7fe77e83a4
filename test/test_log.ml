(** Structured-log suite: severity filtering, the disabled path's
    zero-allocation contract, request-id tagging (explicit and ambient via
    {!Chow_obs.Context}), field rendering, the multi-domain merge
    producing timestamp-ordered JSON lines, and bounded memory with file
    sinks attached. *)

module Event = Chow_obs.Event
module Context = Chow_obs.Context
module Json = Chow_obs.Json

(* parse every line of a log dump, failing the test on anything that is
   not a JSON object with the reserved ts/level/event fields *)
let parsed_lines txt =
  String.split_on_char '\n' txt
  |> List.filter (fun l -> l <> "")
  |> List.map (fun line ->
         match Json.parse line with
         | Error msg -> Alcotest.failf "log line %S does not parse: %s" line msg
         | Ok j ->
             (match Json.member "ts" j with
             | Some (Json.Num _) -> ()
             | _ -> Alcotest.failf "log line %S has no numeric ts" line);
             (match Json.member "level" j with
             | Some (Json.Str s) when Event.level_of_string s <> None -> ()
             | _ -> Alcotest.failf "log line %S has no known level" line);
             (match Json.member "event" j with
             | Some (Json.Str _) -> ()
             | _ -> Alcotest.failf "log line %S has no event" line);
             j)

let event j =
  match Json.member "event" j with
  | Some (Json.Str s) -> s
  | _ -> assert false (* parsed_lines already checked *)

let with_log level f =
  Event.reset ();
  Event.enable_log level;
  Fun.protect
    ~finally:(fun () ->
      Event.disable_log ();
      Event.reset ())
    (fun () ->
      f ();
      let lines = parsed_lines (Event.log_text ()) in
      Event.reset ();
      lines)

let test_level_filtering () =
  let lines =
    with_log Event.Warn (fun () ->
        Alcotest.(check bool) "error kept at Warn" true (Event.log_on Event.Error);
        Alcotest.(check bool) "warn kept at Warn" true (Event.log_on Event.Warn);
        Alcotest.(check bool) "info dropped at Warn" false (Event.log_on Event.Info);
        Alcotest.(check bool)
          "debug dropped at Warn" false (Event.log_on Event.Debug);
        Event.error "e" [];
        Event.warn "w" [];
        Event.info "i" [];
        Event.debug "d" [])
  in
  Alcotest.(check (list string))
    "only error and warn survive" [ "e"; "w" ] (List.map event lines)

let test_disabled_allocates_nothing () =
  Event.reset ();
  Event.disable_log ();
  Alcotest.(check bool) "disabled" false (Event.log_on Event.Error);
  let iters = 100_000 in
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    (* static strings and the empty field list: nothing for the disabled
       path to box *)
    Event.log Event.Debug ~req:(-1) "ev" [];
    Event.debug "ev" []
  done;
  let allocated = Gc.minor_words () -. before in
  (* the counter reads themselves box a couple of floats; the calls must
     contribute nothing — any per-call word would show up [iters]-fold *)
  Alcotest.(check bool)
    (Printf.sprintf "disabled calls allocate nothing (saw %.0f words)"
       allocated)
    true
    (allocated < float_of_int iters /. 100.);
  Alcotest.(check string) "and buffer nothing" "" (Event.log_text ())

let test_request_id_tagging () =
  let lines =
    with_log Event.Info (fun () ->
        Event.info ~req:77 "explicit" [];
        Context.set_request 88;
        Event.info "ambient" [];
        Context.clear_request ();
        Event.info "unscoped" [])
  in
  let req_of name =
    match List.find_opt (fun j -> event j = name) lines with
    | None -> Alcotest.failf "no %s line" name
    | Some j -> Json.member "req" j
  in
  (match req_of "explicit" with
  | Some (Json.Num f) -> Alcotest.(check int) "explicit id" 77 (int_of_float f)
  | _ -> Alcotest.fail "explicit line lost its req");
  (match req_of "ambient" with
  | Some (Json.Num f) ->
      Alcotest.(check int) "ambient id from Context" 88 (int_of_float f)
  | _ -> Alcotest.fail "ambient line lost its req");
  match req_of "unscoped" with
  | None -> ()
  | Some _ -> Alcotest.fail "unscoped line must carry no req key"

let test_field_rendering () =
  let lines =
    with_log Event.Info (fun () ->
        Event.info "fields"
          [
            ("s", Event.Str "a\"b\\c\nd");
            ("i", Event.Int (-5));
            ("b", Event.Bool true);
          ])
  in
  match lines with
  | [ j ] ->
      (match Json.member "s" j with
      | Some (Json.Str s) ->
          Alcotest.(check string) "string field escaped" "a\"b\\c\nd" s
      | _ -> Alcotest.fail "string field lost");
      (match Json.member "i" j with
      | Some (Json.Num f) ->
          Alcotest.(check int) "int field" (-5) (int_of_float f)
      | _ -> Alcotest.fail "int field lost");
      (match Json.member "b" j with
      | Some (Json.Bool true) -> ()
      | _ -> Alcotest.fail "bool field lost")
  | l -> Alcotest.failf "expected exactly one line, got %d" (List.length l)

let test_multi_domain_merge () =
  let per_domain = 50 in
  let lines =
    with_log Event.Debug (fun () ->
        let domains =
          List.map
            (fun name ->
              Domain.spawn (fun () ->
                  for i = 1 to per_domain do
                    Event.debug name [ ("i", Event.Int i) ]
                  done))
            [ "dom:a"; "dom:b"; "dom:c" ]
        in
        for i = 1 to per_domain do
          Event.debug "dom:main" [ ("i", Event.Int i) ]
        done;
        List.iter Domain.join domains)
  in
  Alcotest.(check int)
    "every domain's lines merged" (4 * per_domain) (List.length lines);
  List.iter
    (fun name ->
      Alcotest.(check int)
        (Printf.sprintf "%s contributed all its lines" name)
        per_domain
        (List.length (List.filter (fun j -> event j = name) lines)))
    [ "dom:a"; "dom:b"; "dom:c"; "dom:main" ];
  (* the merge is timestamp-ordered *)
  let ts =
    List.map
      (fun j ->
        match Json.member "ts" j with
        | Some (Json.Num f) -> f
        | _ -> assert false)
      lines
  in
  ignore
    (List.fold_left
       (fun prev t ->
         if t < prev then Alcotest.fail "merged lines out of timestamp order";
         t)
       neg_infinity ts)

(* With file sinks attached, memory must stay O(rings x capacity) however
   many events go through: 200k log lines and 200k spans from two domains
   leave no ring above capacity and the live heap where 10k left it,
   while the files receive every event *)
let test_bounded_with_sinks () =
  let dir = Filename.temp_file "chow88-bounded" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let log_path = Filename.concat dir "log.jsonl"
  and trace_path = Filename.concat dir "trace.json" in
  Event.reset ();
  Event.enable_log ~sink:log_path Event.Debug;
  Event.enable_trace ~sink:trace_path ();
  let record n =
    let half () =
      for i = 1 to n / 2 do
        Event.debug "bounded" [ ("i", Event.Int i) ];
        Event.span "bounded" ignore
      done
    in
    let other = Domain.spawn half in
    half ();
    Domain.join other
  in
  let live_words () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  record 10_000;
  let at_10k = live_words () and rings_10k = List.length (Event.held ()) in
  record 190_000;
  let at_200k = live_words () in
  let held = Event.held () in
  (* the second [record] spawns a fresh domain: it adopts the ring the
     first one left behind *)
  Alcotest.(check int)
    "domain churn adds no ring" rings_10k (List.length held);
  Event.disable_trace ();
  Event.disable_log ();
  Event.reset ();
  List.iter
    (fun n ->
      if n > Event.capacity then
        Alcotest.failf "a ring holds %d events, capacity %d" n Event.capacity)
    held;
  (* unbounded buffering would keep ~190k rendered lines, millions of
     words; the rings are full at 10k already *)
  Alcotest.(check bool)
    (Printf.sprintf "live heap flat (%d words at 10k, %d at 200k)" at_10k
       at_200k)
    true
    (at_200k - at_10k < 100_000);
  let lines path =
    List.filter (fun l -> l <> "")
      (String.split_on_char '\n'
         (In_channel.with_open_bin path In_channel.input_all))
  in
  let log_lines = lines log_path in
  Alcotest.(check int) "the log file holds every line" 200_000
    (List.length log_lines);
  ignore (parsed_lines (List.nth log_lines 199_999));
  let spans =
    List.filter
      (fun l -> String.starts_with ~prefix:"{\"name\":\"bounded\"" l)
      (lines trace_path)
  in
  Alcotest.(check int) "the trace file holds every span" 200_000
    (List.length spans);
  Sys.remove log_path;
  Sys.remove trace_path;
  Unix.rmdir dir

let suite =
  ( "log",
    [
      Alcotest.test_case "severity threshold filters" `Quick
        test_level_filtering;
      Alcotest.test_case "disabled path allocates nothing" `Quick
        test_disabled_allocates_nothing;
      Alcotest.test_case "request ids: explicit, ambient, unscoped" `Quick
        test_request_id_tagging;
      Alcotest.test_case "fields render as typed JSON" `Quick
        test_field_rendering;
      Alcotest.test_case "multi-domain lines merge in ts order" `Quick
        test_multi_domain_merge;
      Alcotest.test_case "file sinks keep memory bounded" `Quick
        test_bounded_with_sinks;
    ] )
