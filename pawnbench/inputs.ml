(** The inputs every workload is built from, all derived from the seed:
    the thirteen Table-1 programs in a seeded order, the synthetic units
    the serve workload builds, and the hand-pinned expected outputs. *)

module W = Chow_workloads.Workloads

(** The Table-1 suite as [(name, source)], in registry order. *)
let table1 = List.map (fun (w : W.t) -> (w.W.name, w.W.source)) W.all

(** Fisher-Yates shuffle of [xs] drawn from [rng]. *)
let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* one loop-nest procedure of a serve unit: enough simultaneously live
   values that allocation dominates a cold build *)
let serve_proc tag =
  Printf.sprintf
    {|
proc mix_%s(a, b, c) {
  var acc = salt;
  var lo = a * 3 - b;
  var hi = a + b * 2 + c;
  var i = 0;
  while (i < a) {
    var j = 0;
    while (j < b) {
      var k = 0;
      while (k < c) {
        var m = (lo + hi) / 2;
        if ((i + j + k) / 2 * 2 == i + j + k) { acc = acc + m * k - j; }
        else { acc = acc - i + salt * m; lo = lo + 1; }
        k = k + 1;
      }
      hi = hi - 1;
      j = j + 1;
    }
    i = i + 1;
  }
  return acc + lo - hi;
}
|}
    tag

let serve_tags = [ "a"; "b"; "c"; "d"; "e"; "f" ]

(** Procedures per serve unit: the loop nests plus [main]. *)
let serve_unit_procs = List.length serve_tags + 1

(** The serve unit for [salt]: distinct salts give distinct sources, so
    distinct cache keys, and identical code shape. *)
let serve_unit salt =
  Printf.sprintf "var salt = %d;\n%s\nproc main() {\n  print(%s);\n}\n" salt
    (String.concat "" (List.map serve_proc serve_tags))
    (String.concat " + "
       (List.mapi
          (fun i t -> Printf.sprintf "mix_%s(%d, %d, %d)" t (2 + (i mod 3)) 3 (2 + (i mod 2)))
          serve_tags))

(** Size of the serve workload's pre-seeded working set. *)
let working_set = 16

(** Salt of working-set unit [i] and of the [n]th never-seen unit, in
    disjoint ranges of the seed's own salt space. *)
let warm_salt ~seed i = (seed * 1_000_000) + i

let cold_salt ~seed n = (seed * 1_000_000) + 1000 + n

(** The expected printed values of each Table-1 program, read from
    [golden.txt] beside this file (values pinned by hand, never
    regenerated from the compiler). *)
let golden path =
  In_channel.with_open_text path In_channel.input_lines
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [] | [ "" ] -> None
         | name :: _ when name.[0] = '#' -> None
         | name :: values ->
             Some
               ( name,
                 List.filter_map int_of_string_opt
                   (List.filter (( <> ) "") values) ))
