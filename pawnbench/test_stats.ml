(* Unit tests of the benchmark's statistics and of the hit/miss
   classification of served requests.  Quartile expectations are the
   values Python's statistics.quantiles(xs, n=4) returns. *)

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9
let a xs = Stats.sorted xs

let () =
  (* median: odd, even, single, tied *)
  check "median odd" (close (Stats.median (a [ 3.; 1.; 2. ])) 2.);
  check "median even" (close (Stats.median (a [ 4.; 1.; 3.; 2. ])) 2.5);
  check "median single" (close (Stats.median (a [ 7. ])) 7.);
  check "median tied" (close (Stats.median (a [ 5.; 5.; 5.; 1. ])) 5.);
  check "median empty raises"
    (match Stats.median [||] with _ -> false | exception Invalid_argument _ -> true);
  (* quartiles: statistics.quantiles([1,2,3,4], n=4) = [1.25, 2.5, 3.75] *)
  let q1, q3 = Stats.quartiles (a [ 1.; 2.; 3.; 4. ]) in
  check "quartiles n=4" (close q1 1.25 && close q3 3.75);
  (* statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25] *)
  let q1, q3 = Stats.quartiles (a (List.init 10 (fun i -> float_of_int (i + 1)))) in
  check "quartiles n=10" (close q1 2.75 && close q3 8.25);
  (* statistics.quantiles([1, 2], n=4) = [0.75, 1.5, 2.25] *)
  let q1, q3 = Stats.quartiles (a [ 2.; 1. ]) in
  check "quartiles n=2 extrapolates" (close q1 0.75 && close q3 2.25);
  let q1, q3 = Stats.quartiles (a [ 3.; 3.; 3.; 3.; 3. ]) in
  check "quartiles tied" (close q1 3. && close q3 3.);
  check "spread tied is zero" (close (Stats.spread (a [ 3.; 3.; 3. ])) 0.);
  check "spread single is zero" (close (Stats.spread (a [ 3. ])) 0.);
  (* spread of 1..10: (8.25 - 2.75) / 5.5 = 1 *)
  check "spread n=10"
    (close (Stats.spread (a (List.init 10 (fun i -> float_of_int (i + 1))))) 1.);
  (* nearest-rank percentiles *)
  let hundred = a (List.init 100 (fun i -> float_of_int (i + 1))) in
  check "p50 of 1..100" (close (Stats.percentile hundred 50.) 50.);
  check "p90 of 1..100" (close (Stats.percentile hundred 90.) 90.);
  check "p100 of 1..100" (close (Stats.percentile hundred 100.) 100.);
  check "p1 of single" (close (Stats.percentile (a [ 4. ]) 1.) 4.);
  check "beyond counts strictly greater"
    (Stats.beyond (a [ 1.; 2.; 2.; 3. ]) 2. = 1);
  (* the tail rule: the highest percentile with >= 10 samples beyond *)
  check "tail of 100 samples is p90"
    (Stats.tail hundred = Some (90., 90.));
  let thousand = a (List.init 1000 (fun i -> float_of_int (i + 1))) in
  check "tail of 1000 samples is p99"
    (Stats.tail thousand = Some (99., 990.));
  check "tail of 99 samples is none"
    (Stats.tail (a (List.init 99 (fun i -> float_of_int i))) = None);
  check "tail of few samples is none" (Stats.tail (a [ 1.; 2.; 3. ]) = None);
  check "tail of empty is none" (Stats.tail [||] = None);
  (* ties at the top leave fewer than ten samples beyond p99: falls back *)
  let tied_top =
    a (List.init 1000 (fun i -> if i >= 985 then 2000. else float_of_int i))
  in
  check "tied top falls back to p90"
    (Stats.tail tied_top = Some (90., 899.));
  check "median is the tail of 20 samples"
    (Stats.tail ~candidates:[ 50.; 90.; 99. ] (a (List.init 20 (fun i -> float_of_int i)))
    = Some (50., 9.));
  check "all tied has no tail"
    (Stats.tail (a (List.init 500 (fun _ -> 1.))) = None);
  (* hit/miss classification from Done counter deltas *)
  let cls = Stats.classify ~unit_procs:7 in
  check "pure hit" (cls [ ("cache.hit", 1); ("pipeline.units", 1) ] = Stats.Hit);
  check "pure miss"
    (cls [ ("cache.miss", 1); ("color.procs", 7) ] = Stats.Miss);
  check "hit window with a concurrent miss lookup"
    (cls [ ("cache.hit", 1); ("cache.miss", 1); ("color.procs", 2) ] = Stats.Hit);
  check "miss window with concurrent hits"
    (cls [ ("cache.hit", 3); ("cache.miss", 1); ("color.procs", 9) ] = Stats.Miss);
  check "no lookup at all" (cls [ ("pipeline.units", 1) ] = Stats.Unclassified);
  check "empty deltas" (cls [] = Stats.Unclassified);
  if !failures > 0 then begin
    Printf.printf "%d statistics test(s) failed\n" !failures;
    exit 1
  end
