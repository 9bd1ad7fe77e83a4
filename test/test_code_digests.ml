(** Pins the emitted code: every workload compiled under every
    {!Config.all} configuration with every [--alloc] strategy must link to
    the very instructions recorded in [code_digests.txt] (the MD5 of the
    image's [pp_inst] listing, one line per image).  Compiler changes that
    are meant to be pure refactors or speedups keep this file unchanged;
    a change that alters code generation on purpose regenerates it — the
    file's header says how. *)

module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Allocator = Chow_core.Allocator
module Asm = Chow_codegen.Asm
module W = Chow_workloads.Workloads

let digests_file = "code_digests.txt"

(* written next to the test binary's working directory on a mismatch, so
   a deliberate change can be reviewed and copied over [digests_file] *)
let actual_file = "code_digests.actual"

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

(* [key digest] lines; blank lines and [#] comments are skipped *)
let expected =
  lazy
    (In_channel.with_open_text digests_file In_channel.input_lines
    |> List.filter_map (fun line ->
           let line = String.trim line in
           if line = "" || line.[0] = '#' then None
           else
             match String.rindex_opt line ' ' with
             | Some i ->
                 Some
                   ( String.sub line 0 i,
                     String.sub line (i + 1) (String.length line - i - 1) )
             | None -> failwith ("malformed digest line: " ^ line)))

let mismatched = ref false

let write_actual () =
  Out_channel.with_open_text actual_file (fun oc ->
      List.iter
        (fun w ->
          List.iter
            (fun (k, d) -> Printf.fprintf oc "%s %s\n" k d)
            (images w))
        W.all)

let test_workload (w : W.t) () =
  List.iter
    (fun (k, d) ->
      let want = List.assoc_opt k (Lazy.force expected) in
      if want <> Some d && not !mismatched then begin
        mismatched := true;
        write_actual ()
      end;
      Alcotest.(check (option string)) k want (Some d))
    (images w)

let test_complete () =
  Alcotest.(check int)
    "one digest per workload x configuration x strategy"
    (List.length W.all * List.length Config.all * List.length Allocator.all)
    (List.length (Lazy.force expected))

let suite =
  ( "code-digests",
    Alcotest.test_case "digest file is complete" `Quick test_complete
    :: List.map
         (fun w -> Alcotest.test_case w.W.name `Quick (test_workload w))
         W.all )
