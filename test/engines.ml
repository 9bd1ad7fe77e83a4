(** The differential check shared by the simulator suites: the decoded
    engine ({!Sim.run}) against the reference engine ({!Sim.run_reference})
    on one program, with profiling off (the path [simulate], [pawnc run]
    and the daemon take) and on, per-pc counts included. *)

module Sim = Chow_sim.Sim
module Decode = Chow_sim.Decode

let capture f = try Ok (f ()) with Sim.Runtime_error m -> Error m

let same name (r : Sim.outcome) (d : Sim.outcome) =
  Alcotest.(check (list int)) (name ^ ": output") r.Sim.output d.Sim.output;
  Alcotest.(check int) (name ^ ": cycles") r.Sim.cycles d.Sim.cycles;
  Alcotest.(check int) (name ^ ": calls") r.Sim.calls d.Sim.calls;
  Alcotest.(check int) (name ^ ": data loads") r.Sim.data_loads
    d.Sim.data_loads;
  Alcotest.(check int) (name ^ ": data stores") r.Sim.data_stores
    d.Sim.data_stores;
  Alcotest.(check int) (name ^ ": scalar loads") r.Sim.scalar_loads
    d.Sim.scalar_loads;
  Alcotest.(check int) (name ^ ": scalar stores") r.Sim.scalar_stores
    d.Sim.scalar_stores;
  Alcotest.(check int) (name ^ ": save loads") r.Sim.save_loads
    d.Sim.save_loads;
  Alcotest.(check int) (name ^ ": save stores") r.Sim.save_stores
    d.Sim.save_stores;
  Alcotest.(check int) (name ^ ": call-save loads") r.Sim.call_save_loads
    d.Sim.call_save_loads;
  Alcotest.(check int) (name ^ ": call-save stores") r.Sim.call_save_stores
    d.Sim.call_save_stores;
  Alcotest.(check (list (pair string int)))
    (name ^ ": proc cycles") r.Sim.proc_cycles d.Sim.proc_cycles

(** [agree ?fuel ?mem_words ?check name prog] runs both engines with
    profiling off, then on, and insists on identical outcomes each time
    (output, cycles, calls, every traffic counter and per-procedure
    cycles) or the very same [Runtime_error] message.  The profiled runs
    also count per pc ([pc_buf]), and the two count arrays must be equal
    whole, up to a trap as well as to [halt].  [check] (default true) arms
    or disarms both engines' contract checker.  It returns the decoded
    engine's profiled result. *)
let agree ?fuel ?mem_words ?check name prog =
  let n = Array.length prog.Chow_codegen.Asm.code in
  let d_counts = Array.make n 0 and r_counts = Array.make n 0 in
  let run profile =
    let name = Printf.sprintf "%s (profile %b)" name profile in
    let decoded =
      capture (fun () ->
          if profile then
            Decode.execute ?fuel ?mem_words ?check ~profile ~pc_buf:d_counts
              (Decode.decode prog)
          else Sim.run ?fuel ?mem_words ?check prog)
    in
    let reference =
      capture (fun () ->
          if profile then
            Sim.run_reference ?fuel ?mem_words ?check ~profile
              ~pc_buf:r_counts prog
          else Sim.run_reference ?fuel ?mem_words ?check prog)
    in
    if profile then
      Alcotest.(check (array int)) (name ^ ": per-pc counts") r_counts d_counts;
    (match (decoded, reference) with
    | Ok d, Ok r -> same name r d
    | Error d, Error r -> Alcotest.(check string) (name ^ ": error") r d
    | Ok _, Error r ->
        Alcotest.failf "%s: decoded succeeded, reference trapped: %s" name r
    | Error d, Ok _ ->
        Alcotest.failf "%s: decoded trapped (%s), reference succeeded" name d);
    decoded
  in
  ignore (run false);
  run true
