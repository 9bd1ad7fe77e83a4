(** Order statistics over benchmark samples, and the hit/miss
    classification of a served request.  Pure functions, unit-tested in
    [test_stats.ml]. *)

(** [sorted xs] is [xs] as an ascending array. *)
let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let nonempty name a =
  if Array.length a = 0 then invalid_arg ("Stats." ^ name ^ ": no samples")

(** Median of an ascending array; the mean of the middle pair when the
    count is even. *)
let median a =
  nonempty "median" a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(** First and third quartile of an ascending array, computed exactly as
    Python's [statistics.quantiles(xs, n=4)] (the default "exclusive"
    method), so a spread printed here matches one computed over runs. *)
let quartiles a =
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: needs two samples";
  let q i =
    let m = ld + 1 in
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 3)

(** Interquartile range as a share of the median: the spread the bounds
    in BENCHMARK.json are checked against.  0 for fewer than two samples. *)
let spread a =
  if Array.length a < 2 then 0.
  else
    let q1, q3 = quartiles a in
    let m = median a in
    if m = 0. then 0. else (q3 -. q1) /. m

(** Nearest-rank percentile [p] (0 < p <= 100) of an ascending array. *)
let percentile a p =
  nonempty "percentile" a;
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

(** Samples strictly greater than [v] in an ascending array. *)
let beyond a v =
  let n = Array.length a in
  let rec first_above lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if a.(mid) > v then first_above lo mid else first_above (mid + 1) hi
  in
  n - first_above 0 n

(** The tail to report: the highest of [candidates] (percentiles) that
    has at least [min_beyond] samples strictly beyond it, with its value.
    [None] when even the lowest candidate has too few, as on tiny or
    heavily tied inputs. *)
let tail ?(candidates = [ 90.; 99. ]) ?(min_beyond = 10) a =
  if Array.length a = 0 then None
  else
    List.fold_left
      (fun best p ->
        let v = percentile a p in
        if beyond a v >= min_beyond then Some (p, v) else best)
      None
      (List.sort compare candidates)

(** {2 Served requests} *)

type outcome = Hit | Miss | Unclassified

(** [classify ~unit_procs counters] decides whether a [Build] request of
    one unit with [unit_procs] procedures was served from the artifact
    cache, from the metric deltas of its [Done] reply.

    The daemon's deltas diff one global registry around the request, so
    a lookup made by a request running concurrently on another worker
    can land in the same window.  The request's own lookup is exactly one
    [cache.hit] or one [cache.miss]; when both moved, the window decides
    by whether it holds a whole allocation of the unit ([color.procs] at
    least [unit_procs]), which only a miss performs inside its own
    window. *)
let classify ~unit_procs counters =
  let get k = Option.value ~default:0 (List.assoc_opt k counters) in
  match (get "cache.hit", get "cache.miss") with
  | h, 0 when h > 0 -> Hit
  | 0, m when m > 0 -> Miss
  | h, m when h > 0 && m > 0 ->
      if get "color.procs" >= unit_procs then Miss else Hit
  | _ -> Unclassified
