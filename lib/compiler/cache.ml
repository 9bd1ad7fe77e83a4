(** Content-addressed artifact store; see the interface for the contract.

    Layout on disk: one [<key>.pawno] file per artifact, directly under
    the cache directory.  The key already is a cryptographic digest of the
    artifact's full provenance, so the store never needs to compare
    sources — existence is correctness, and the artifact's own checksum
    (plus {!Objfile.contract_check}) guards the bytes themselves.

    Sharding: the store is split into [shards] independent slices by key
    prefix (the key's first two hex digits — a uniform value in 0..255 —
    modulo the shard count; shard counts are clamped to 256 so every
    shard is reachable and the entry budget is never split across
    slices that can't fill).  Each shard
    has its own lock — held across a [find]'s load and a [store]'s
    save-plus-eviction, so hit/miss/evict accounting is atomic per shard
    and an eviction scan can never unlink an entry out from under a
    concurrent hit in the same process — and its own share of the
    [max_entries] budget.  Keys are uniformly distributed digests, so
    concurrent warm lookups land on different shards with probability
    [1 - 1/shards] and never serialize on one global mutex.  The disk
    layout is shard-agnostic (one flat directory), so processes opening
    the same directory with different shard counts interoperate. *)

module Objfile = Chow_codegen.Objfile
module Metrics = Chow_obs.Metrics
module Event = Chow_obs.Event

let m_hit = Metrics.counter "cache.hit"
let m_miss = Metrics.counter "cache.miss"
let m_evict = Metrics.counter "cache.evict"
let m_corrupt = Metrics.counter "cache.corrupt"

type t = {
  dir : string;
  max_entries : int option;
  locks : Mutex.t array;  (** one lock per shard; see the module comment *)
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.is_directory dir -> ()
  end

(* routing reads two hex digits, so at most 256 shards are addressable;
   a larger count would leave shards permanently empty while still
   claiming a slice of the entry budget *)
let max_shards = 256

let create ?max_entries ?(shards = 1) ~dir () =
  if shards < 1 then invalid_arg "Cache.create: shards must be >= 1";
  let shards = min shards max_shards in
  mkdir_p dir;
  { dir; max_entries; locks = Array.init shards (fun _ -> Mutex.create ()) }

let dir t = t.dir
let shards t = Array.length t.locks

let key ~config_fp ~source ~data_base =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "objfile-v%d\x00%s\x00base=%d\x00%s"
          Objfile.format_version config_fp data_base source))

(* keys are hex digests, so the first two characters' hex value is
   uniform over 0..255 — enough distinct values to reach every shard up
   to [max_shards]; non-hex characters (tests, external callers) fall
   back to their low nibble, which still routes deterministically *)
let shard_index t key =
  let n = Array.length t.locks in
  if n = 1 || key = "" then 0
  else
    let nibble c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | c -> Char.code c land 0xf
    in
    let hi = nibble key.[0] in
    let lo = if String.length key > 1 then nibble key.[1] else 0 in
    ((hi lsl 4) lor lo) mod n

let path_of t key = Filename.concat t.dir (key ^ ".pawno")

let entries t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> [||]
  | names ->
      Array.of_list
        (List.filter
           (fun n -> Filename.check_suffix n ".pawno")
           (Array.to_list names))

let shard_entries t idx =
  Array.of_list
    (List.filter
       (fun n -> shard_index t (Filename.chop_suffix n ".pawno") = idx)
       (Array.to_list (entries t)))

type stats = {
  s_entries : int;
  s_bytes : int;
  s_shard_entries : int array;
  s_shard_bytes : int array;
}

(* one readdir + one stat per artifact; entries racing with concurrent
   eviction may vanish between the two, and simply don't count *)
let stats t =
  let n = Array.length t.locks in
  let per_entries = Array.make n 0 and per_bytes = Array.make n 0 in
  Array.iter
    (fun name ->
      let idx = shard_index t (Filename.chop_suffix name ".pawno") in
      match Unix.stat (Filename.concat t.dir name) with
      | exception Unix.Unix_error _ -> ()
      | st ->
          per_entries.(idx) <- per_entries.(idx) + 1;
          per_bytes.(idx) <- per_bytes.(idx) + st.Unix.st_size)
    (entries t);
  {
    s_entries = Array.fold_left ( + ) 0 per_entries;
    s_bytes = Array.fold_left ( + ) 0 per_bytes;
    s_shard_entries = per_entries;
    s_shard_bytes = per_bytes;
  }

(* the shard's share of the global entry budget, rounded up so the total
   bound is never under-enforced by integer division *)
let shard_quota t =
  match t.max_entries with
  | None -> None
  | Some max_entries ->
      let n = Array.length t.locks in
      Some (max 1 ((max_entries + n - 1) / n))

let find t key =
  let path = path_of t key in
  let idx = shard_index t key in
  Mutex.protect t.locks.(idx) (fun () ->
      if not (Sys.file_exists path) then begin
        Metrics.incr m_miss;
        if Event.flight_on () then Event.mark ~detail:key "cache-miss";
        Event.debug "cache-miss" [];
        None
      end
      else
        (* an unreadable entry, or one that decodes but violates the mask
           contract (stale logic or tampering), is dropped and recompiled *)
        let valid =
          match Objfile.load path with
          | art when Objfile.contract_check art = Ok () -> Some art
          | _ -> None
          | exception (Objfile.Corrupt _ | Sys_error _) -> None
        in
        match valid with
        | Some art ->
            Metrics.incr m_hit;
            if Event.flight_on () then Event.mark ~detail:key "cache-hit";
            Event.debug "cache-hit" [];
            (* refresh the entry's age: eviction is least-recently-USED,
               not least-recently-stored *)
            (try Unix.utimes path 0. 0. with Unix.Unix_error _ -> ());
            Some art
        | None ->
            Metrics.incr m_corrupt;
            Metrics.incr m_miss;
            if Event.flight_on () then Event.mark ~detail:key "cache-corrupt";
            Event.warn "cache-corrupt" [];
            (try Sys.remove path with Sys_error _ -> ());
            None)

(* Caller holds the shard lock.  Entries are aged by (mtime, key): mtime
   has 1-second granularity on some filesystems, so entries stored within
   the same second tie — the key breaks the tie, making eviction order
   deterministic and reproducible across runs. *)
let evict_locked t idx =
  match shard_quota t with
  | None -> ()
  | Some quota ->
      let names = shard_entries t idx in
      let over = Array.length names - quota in
      if over > 0 then begin
        let aged =
          Array.map
            (fun n ->
              let p = Filename.concat t.dir n in
              let mtime =
                try (Unix.stat p).Unix.st_mtime with Unix.Unix_error _ -> 0.
              in
              (mtime, n, p))
            names
        in
        Array.sort compare aged;
        Array.iteri
          (fun i (_, n, p) ->
            if i < over then begin
              (try Sys.remove p with Sys_error _ -> ());
              Metrics.incr m_evict;
              if Event.flight_on () then Event.mark ~detail:n "cache-evict";
              if Event.log_on Event.Info then
                Event.info "cache-evict" [ ("entry", Event.Str n) ]
            end)
          aged
      end

let store t key art =
  let idx = shard_index t key in
  Mutex.protect t.locks.(idx) (fun () ->
      Objfile.save ~path:(path_of t key) art;
      evict_locked t idx)

let clear t =
  Array.iter
    (fun n -> try Sys.remove (Filename.concat t.dir n) with Sys_error _ -> ())
    (entries t)
