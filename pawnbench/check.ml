(** The verification pass every run ends with: compile the Table-1 suite
    at -O3+sw sequentially and on every core, run each program once,
    compare its printed values with the pinned expectations, and total
    the paper's code-quality counts.  The totals must not depend on the
    parallelism. *)

module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Sim = Chow_sim.Sim
module Asm = Chow_codegen.Asm

(** Exact suite totals of the generated code (the paper's Tables 1-2). *)
type totals = {
  cycles : int;
  scalar_memops : int;  (** scalar loads + stores, save/restore included *)
  save_restore_ops : int;  (** the save/restore loads + stores alone *)
  words : int;  (** linked code size in instructions *)
}

let zero = { cycles = 0; scalar_memops = 0; save_restore_ops = 0; words = 0 }

let add t (o : Sim.outcome) words =
  {
    cycles = t.cycles + o.Sim.cycles;
    scalar_memops = t.scalar_memops + o.Sim.scalar_loads + o.Sim.scalar_stores;
    save_restore_ops = t.save_restore_ops + o.Sim.save_loads + o.Sim.save_stores;
    words = t.words + words;
  }

let o3sw jobs = Config.with_jobs jobs Config.o3_sw
let o2 = Config.with_jobs 1 Config.baseline
let code_words c = Array.length (Pipeline.program c).Asm.code

(** [expect tally ~golden name (o : Sim.outcome)] counts a failure when
    program [name] printed anything but its pinned values. *)
let expect tally ~golden name (o : Sim.outcome) =
  match List.assoc_opt name golden with
  | Some v when v = o.Sim.output -> ()
  | Some _ -> Measure.fail tally "%s printed unexpected values" name
  | None -> Measure.fail tally "%s has no expected values" name

(** Compile and run the suite at -O3+sw with [jobs] lanes. *)
let suite tally ~golden jobs =
  List.fold_left
    (fun acc (name, src) ->
      match
        Measure.guard tally ("check " ^ name) (fun () ->
            let c = Pipeline.compile_source (o3sw jobs) (Pipeline.Src src) in
            (Pipeline.run c, code_words c))
      with
      | Some (o, words) ->
          expect tally ~golden name o;
          add acc o words
      | None -> acc)
    zero Inputs.table1

(** The verification pass; returns the -j1 totals and their metrics. *)
let run tally ~golden =
  let cores = Domain.recommended_domain_count () in
  let seq = suite tally ~golden 1 in
  let par = suite tally ~golden (max 2 cores) in
  Measure.attempt tally;
  if seq <> par then
    Measure.fail tally "code totals differ between -j1 and -j%d" (max 2 cores);
  ( seq,
    [
      Measure.metric "code.cycles" "count" (float_of_int seq.cycles);
      Measure.metric "code.scalar_memops" "count" (float_of_int seq.scalar_memops);
      Measure.metric "code.save_restore_ops" "count"
        (float_of_int seq.save_restore_ops);
      Measure.metric "code.words" "count" (float_of_int seq.words);
    ] )
