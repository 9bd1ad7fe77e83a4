(** A [pawnc serve] daemon run as its own process for the benchmark, in
    a fresh directory under the working directory that holds its socket,
    its cache and its log.  The socket path is relative, so it stays far
    below the 108-byte limit of unix socket paths wherever the checkout
    lives. *)

module Client = Chow_server.Client
module Protocol = Chow_server.Protocol

type t = { pid : int; dir : string; sock : string; mutable reaped : bool }

let root = ".pawnbench-tmp"

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir () =
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let rec pick k =
    let d = Filename.concat root (Printf.sprintf "%d-%d" (Unix.getpid ()) k) in
    match Unix.mkdir d 0o755 with
    | () -> d
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> pick (k + 1)
  in
  pick 0

(** Has the daemon exited?  Reaps it when it has. *)
let exited t =
  t.reaped
  ||
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ -> false
  | _ | (exception Unix.Unix_error _) ->
      t.reaped <- true;
      true

(** [connect t] opens a connection whose reads give up after 20 s, so a
    wedged daemon fails requests instead of hanging the benchmark. *)
let connect t =
  let c = Client.connect ~socket_path:t.sock in
  Unix.setsockopt_float (Client.fd c) Unix.SO_RCVTIMEO 20.;
  c

let request t req =
  let c = connect t in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.request c req)

let rec poll ~deadline f =
  if f () then true
  else if Measure.now () > deadline then false
  else begin
    Unix.sleepf 0.002;
    poll ~deadline f
  end

(** The last lines the daemon wrote to its log, for a failure report. *)
let log_tail t =
  match
    In_channel.with_open_text (Filename.concat t.dir "daemon.log")
      In_channel.input_all
  with
  | s -> String.trim s
  | exception Sys_error _ -> ""

(** [stop t] asks the daemon to shut down, waits for it to exit, kills
    it when it does not, and removes its directory.  [true] only when it
    stopped on request and left nothing behind. *)
let stop t =
  let bye =
    match request t Protocol.Shutdown with
    | Protocol.Bye -> true
    | _ | (exception _) -> false
  in
  let clean = bye && poll ~deadline:(Measure.now () +. 15.) (fun () -> exited t) in
  if not (exited t) then begin
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
    t.reaped <- true
  end;
  if not clean then prerr_endline ("pawnbench: daemon log: " ^ log_tail t);
  rm_rf t.dir;
  (try Unix.rmdir root with Unix.Unix_error _ -> ());
  clean && not (Sys.file_exists t.dir)

(** [start ~pawnc ~workers ~max_entries] spawns [pawnc serve] with a
    one-shard cache bounded at [max_entries] (so least-recently-used
    eviction is global) and waits until it answers a ping. *)
let start ~pawnc ~workers ~max_entries =
  let dir = fresh_dir () in
  let sock = Filename.concat dir "s" in
  let log =
    Unix.openfile (Filename.concat dir "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let args =
    [| pawnc; "serve"; "--socket"; sock; "--workers"; string_of_int workers;
       "--cache-dir"; Filename.concat dir "cache"; "--shards"; "1";
       "--max-entries"; string_of_int max_entries |]
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close log; Unix.close null)
      (fun () -> Unix.create_process pawnc args null log log)
  in
  let t = { pid; dir; sock; reaped = false } in
  let up () =
    (not (exited t))
    && match request t Protocol.Ping with
       | Protocol.Pong -> true
       | _ | (exception _) -> false
  in
  if poll ~deadline:(Measure.now () +. 30.) (fun () -> up () || exited t)
     && not (exited t)
  then t
  else begin
    let log = log_tail t in
    ignore (stop t);
    failwith ("pawnc serve did not come up: " ^ log)
  end

(** The daemon's peak resident set in MB. *)
let peak_rss_mb t =
  Measure.peak_rss_mb ~status:(Printf.sprintf "/proc/%d/status" t.pid) ()
