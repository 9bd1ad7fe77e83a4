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
    colorer's scoring that leaves the chosen registers alone still shows. *)

module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Allocator = Chow_core.Allocator
module Asm = Chow_codegen.Asm
module Coloring = Chow_core.Coloring
module Lower = Chow_frontend.Lower
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

(** One pinned digest file: [digests] computes a workload's [(key, md5)]
    lines; on the first mismatch every current line is written to
    [<base>.actual] beside the test binary, so a deliberate change can be
    reviewed and copied over [<base>.txt]. *)
let digest_suite ~name ~base ~per_workload ~digests =
  let expected = lazy (read_digests (base ^ ".txt")) in
  let mismatched = ref false in
  let write_actual () =
    Out_channel.with_open_text (base ^ ".actual") (fun oc ->
        List.iter
          (fun w ->
            List.iter
              (fun (k, d) -> Printf.fprintf oc "%s %s\n" k d)
              (digests w))
          W.all)
  in
  let test_workload (w : W.t) () =
    List.iter
      (fun (k, d) ->
        let want = List.assoc_opt k (Lazy.force expected) in
        if want <> Some d && not !mismatched then begin
          mismatched := true;
          write_actual ()
        end;
        Alcotest.(check (option string)) k want (Some d))
      (digests w)
  in
  let test_complete () =
    Alcotest.(check int) "one digest per line key"
      (List.length W.all * per_workload)
      (List.length (Lazy.force expected))
  in
  ( name,
    Alcotest.test_case "digest file is complete" `Quick test_complete
    :: List.map
         (fun w -> Alcotest.test_case w.W.name `Quick (test_workload w))
         W.all )

let suite =
  digest_suite ~name:"code-digests" ~base:"code_digests"
    ~per_workload:(List.length Config.all * List.length Allocator.all)
    ~digests:images

let explain_suite =
  digest_suite ~name:"explain-digests" ~base:"explain_digests"
    ~per_workload:(List.length Config.all) ~digests:explanations
