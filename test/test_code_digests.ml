(** Pins the emitted code: every workload compiled under every
    {!Config.all} configuration with every [--alloc] strategy must link to
    the very instructions recorded in [code_digests.txt] (the MD5 of the
    image's [pp_inst] listing, one line per image).  Compiler changes that
    are meant to be pure refactors or speedups keep this file unchanged;
    a change that alters code generation on purpose regenerates it — the
    file's header says how.

    [explain_digests.txt] pins the [--explain] report the same way: one
    MD5 per workload x {!Config.all} configuration over
    {!Coloring.pp_explanation} of every procedure, so a change to the
    colorer's scoring that leaves the chosen registers alone still shows.

    [bench_counts.txt] pins the paper's exact dynamic counts the same way,
    one [<row> <value>] line per count: executed saves and restores per
    workload and configuration, what a [--pgo] rebuild removes, and the
    [--alloc] strategy matrix.

    [token_digests.txt] pins the front end's token stream: one MD5 per
    workload over its [Lexer.tokenize] [(token, line)] pairs, so a change
    to how the lexer scans leaves every token and every line number as it
    was. *)

module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Allocator = Chow_core.Allocator
module Asm = Chow_codegen.Asm
module Coloring = Chow_core.Coloring
module Objfile = Chow_codegen.Objfile
module Protocol = Chow_server.Protocol
module Lexer = Chow_frontend.Lexer
module Lower = Chow_frontend.Lower
module Token = Chow_frontend.Token
module Profile = Chow_sim.Profile
module Sim = Chow_sim.Sim
module W = Chow_workloads.Workloads

let code_digest (p : Asm.program) =
  let buf = Buffer.create 65536 in
  let ppf = Format.formatter_of_buffer buf in
  Array.iter (fun i -> Format.fprintf ppf "%a\n" Asm.pp_inst i) p.Asm.code;
  Format.pp_print_flush ppf ();
  Digest.to_hex (Digest.string (Buffer.contents buf))

let key (w : W.t) (c : Config.t) =
  Printf.sprintf "%s %s %s" w.W.name c.Config.name
    (Allocator.to_string c.Config.alloc)

let images (w : W.t) =
  List.concat_map
    (fun config ->
      List.map
        (fun a ->
          let c = Config.with_alloc a config in
          let compiled = Pipeline.compile_source c (Pipeline.Src w.W.source) in
          (key w c, code_digest (Pipeline.program compiled)))
        Allocator.all)
    Config.all

(* one digest per workload x configuration over the --explain report of
   every procedure, each compiled with that procedure named *)
let explanations (w : W.t) =
  let procs = (Lower.compile_unit w.W.source).Chow_ir.Ir.procs in
  List.map
    (fun (c : Config.t) ->
      let buf = Buffer.create 65536 in
      let ppf = Format.formatter_of_buffer buf in
      List.iter
        (fun (p : Chow_ir.Ir.proc) ->
          let name = p.Chow_ir.Ir.pname in
          let trail = ref [] in
          ignore
            (Pipeline.compile_source ~explain:(name, trail) c
               (Pipeline.Src w.W.source));
          Format.fprintf ppf "== %s ==@.%a" name Coloring.pp_explanation
            !trail)
        procs;
      Format.pp_print_flush ppf ();
      ( Printf.sprintf "%s %s" w.W.name c.Config.name,
        Digest.to_hex (Digest.string (Buffer.contents buf)) ))
    Config.all

(* [key digest] lines; blank lines and [#] comments are skipped *)
let read_digests file =
  In_channel.with_open_text file In_channel.input_lines
    |> List.filter_map (fun line ->
           let line = String.trim line in
           if line = "" || line.[0] = '#' then None
           else
             match String.rindex_opt line ' ' with
             | Some i ->
                 Some
                   ( String.sub line 0 i,
                     String.sub line (i + 1) (String.length line - i - 1) )
             | None -> failwith ("malformed digest line: " ^ line))

(** One pinned digest file: [cases] are the test cases, each computing
    its [(key, digest)] lines, and [total] the number of lines the file
    must hold.  On the first mismatch every current line is written to
    [<base>.actual] beside the test binary, so a deliberate change can be
    reviewed and copied over [<base>.txt]. *)
let digest_suite ~name ~base ~total ~cases =
  let expected = lazy (read_digests (base ^ ".txt")) in
  let mismatched = ref false in
  let write_actual () =
    Out_channel.with_open_text (base ^ ".actual") (fun oc ->
        List.iter
          (fun (_, lines) ->
            List.iter
              (fun (k, d) -> Printf.fprintf oc "%s %s\n" k d)
              (lines ()))
          cases)
  in
  let test_case lines () =
    List.iter
      (fun (k, d) ->
        let want = List.assoc_opt k (Lazy.force expected) in
        if want <> Some d && not !mismatched then begin
          mismatched := true;
          write_actual ()
        end;
        Alcotest.(check (option string)) k want (Some d))
      (lines ())
  in
  let test_complete () =
    Alcotest.(check int) "one digest per line key" total
      (List.length (Lazy.force expected))
  in
  ( name,
    Alcotest.test_case "digest file is complete" `Quick test_complete
    :: List.map
         (fun (case, lines) ->
           Alcotest.test_case case `Quick (test_case lines))
         cases )

let per_workload digests =
  List.map (fun (w : W.t) -> (w.W.name, fun () -> digests w)) W.all

let suite =
  digest_suite ~name:"code-digests" ~base:"code_digests"
    ~total:
      (List.length W.all * List.length Config.all * List.length Allocator.all)
    ~cases:(per_workload images)

let explain_suite =
  digest_suite ~name:"explain-digests" ~base:"explain_digests"
    ~total:(List.length W.all * List.length Config.all)
    ~cases:(per_workload explanations)

(* one digest per workload over its token stream, one "<line> <token>"
   row per token; identifiers and literals are tagged so no spelling can
   stand for a keyword *)
let tokens (w : W.t) =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (t, line) ->
      let text =
        match t with
        | Token.IDENT s -> "id:" ^ s
        | Token.INT n -> "int:" ^ string_of_int n
        | t -> Token.to_string t
      in
      Printf.bprintf buf "%d %s\n" line text)
    (Lexer.tokenize w.W.source);
  [ (w.W.name, Digest.to_hex (Digest.string (Buffer.contents buf))) ]

let token_suite =
  digest_suite ~name:"token-digests" ~base:"token_digests"
    ~total:(List.length W.all) ~cases:(per_workload tokens)

(* ----- the paper's exact dynamic counts ----- *)

let source_of name =
  match W.find name with
  | Some w -> w.W.source
  | None -> invalid_arg ("unknown workload " ^ name)

let compile config src = Pipeline.compile_source config (Pipeline.Src src)

(* Dynamic-penalty rows: for each workload and configuration, the
   save/restore memory operations executed under the penalty profiler,
   and the scalar memory operations removed relative to -O2. *)
let penalty_rows () =
  let configs = [ Config.baseline; Config.o2_sw; Config.o3; Config.o3_sw ] in
  List.concat_map
    (fun workload ->
      let reports =
        List.map
          (fun config ->
            ( config,
              Pipeline.profile_penalty (compile config (source_of workload)) ))
          configs
      in
      let scalar_ops (r : Profile.report) =
        r.Profile.outcome.Sim.scalar_loads
        + r.Profile.outcome.Sim.scalar_stores
      in
      let base_ops = scalar_ops (snd (List.hd reports)) in
      List.concat_map
        (fun ((config : Config.t), (r : Profile.report)) ->
          let c = r.Profile.counters in
          let row what v =
            ( Printf.sprintf "penalty/%s/%s/%s" workload config.Config.name
                what,
              string_of_int v )
          in
          [
            row "saves" (c.Profile.entry_saves + c.Profile.call_saves);
            row "restores" (c.Profile.exit_restores + c.Profile.call_restores);
            row "memops_removed_vs_O2" (base_ops - scalar_ops r);
          ])
        reports)
    [ "nim"; "dhrystone"; "uopt"; "stanford" ]

(* Profile-guided inlining rows: measure a penalty profile, rebuild under
   --pgo with the default budget, and report the save/restore memory
   operations removed relative to the plain build, the PGO build's
   cycles, and its code growth in instruction words. *)
let pgo_rows () =
  List.concat_map
    (fun workload ->
      let src = source_of workload in
      List.concat_map
        (fun (config : Config.t) ->
          let plain = compile config src in
          let plain_r = Pipeline.profile_penalty plain in
          let a =
            Profile.artifact
              ~source_digest:(Pipeline.source_digest [ src ])
              ~config_fp:(Config.fingerprint config)
              (Pipeline.program plain) plain_r
          in
          let pgo = Pipeline.pgo ~config ~srcs:[ src ] a in
          let pgo_c = Pipeline.compile_source ~pgo config (Pipeline.Src src) in
          let pgo_r = Pipeline.profile_penalty pgo_c in
          let penalty (r : Profile.report) =
            Profile.penalty_total r.Profile.counters
          in
          let code c = Array.length (Pipeline.program c).Asm.code in
          let row what v =
            ( Printf.sprintf "pgo/%s/%s/%s" workload config.Config.name what,
              string_of_int v )
          in
          [
            row "memops_removed_vs_baseline" (penalty plain_r - penalty pgo_r);
            row "cycles" pgo_r.Profile.outcome.Sim.cycles;
            row "code_growth" (code pgo_c - code plain);
          ])
        [ Config.baseline; Config.o3_sw ])
    [ "dhrystone"; "uopt" ]

(* Allocation-strategy rows: every --alloc policy under the two headline
   configurations.  "saves" counts every store the allocation decision
   causes (register saves plus spill-home stores) and "restores" the
   matching loads, so spill-everywhere compares with the coloring
   strategies on the axis the paper minimizes. *)
let alloc_rows () =
  List.concat_map
    (fun workload ->
      List.concat_map
        (fun (config : Config.t) ->
          List.concat_map
            (fun strategy ->
              let config = Config.with_alloc strategy config in
              let o = Pipeline.run (compile config (source_of workload)) in
              let row what v =
                ( Printf.sprintf "alloc/%s/%s/%s/%s"
                    (Allocator.to_string strategy) workload config.Config.name
                    what,
                  string_of_int v )
              in
              [
                row "cycles" o.Sim.cycles;
                row "saves" (o.Sim.save_stores + o.Sim.scalar_stores);
                row "restores" (o.Sim.save_loads + o.Sim.scalar_loads);
              ])
            Allocator.all)
        [ Config.baseline; Config.o3_sw ])
    [ "nim"; "dhrystone"; "uopt" ]

let bench_suite =
  (* 48 penalty + 12 pgo + 54 alloc rows *)
  digest_suite ~name:"bench-counts" ~base:"bench_counts" ~total:114
    ~cases:
      [ ("penalty", penalty_rows); ("pgo", pgo_rows); ("alloc", alloc_rows) ]

(* ----- the encoded bytes of artifacts and wire messages ----- *)

(* Object files of every workload under every configuration, the penalty
   profile artifact of every workload at -O3+sw, and the protocol's
   sample messages: one MD5 per encoding, so a change to the shared
   binary codec that alters a single byte on disk or on the wire shows. *)
let hex s = Digest.to_hex (Digest.string s)

let encodings (w : W.t) =
  let objfiles =
    List.map
      (fun (c : Config.t) ->
        let arts = Pipeline.artifacts (compile c w.W.source) in
        ( Printf.sprintf "objfile %s %s" w.W.name c.Config.name,
          hex (String.concat "" (List.map Objfile.write arts)) ))
      Config.all
  in
  let c = compile Config.o3_sw w.W.source in
  let a =
    Profile.artifact
      ~source_digest:(Pipeline.source_digest [ w.W.source ])
      ~config_fp:(Config.fingerprint Config.o3_sw)
      (Pipeline.program c) (Pipeline.profile_penalty c)
  in
  objfiles
  @ [
      ( Printf.sprintf "profile %s %s" w.W.name Config.o3_sw.Config.name,
        hex (Profile.write_artifact a) );
    ]

let messages () =
  List.mapi
    (fun i r ->
      (Printf.sprintf "request %d" i, hex (Protocol.encode_request r)))
    Test_server.sample_requests
  @ List.mapi
      (fun i r -> (Printf.sprintf "reply %d" i, hex (Protocol.encode_reply r)))
      Test_server.sample_replies

let artifact_suite =
  digest_suite ~name:"artifact-digests" ~base:"artifact_digests"
    ~total:
      ((List.length W.all * (List.length Config.all + 1))
      + List.length Test_server.sample_requests
      + List.length Test_server.sample_replies)
    ~cases:(per_workload encodings @ [ ("protocol", messages) ])
