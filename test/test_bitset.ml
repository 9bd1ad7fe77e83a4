(** Unit and property tests for {!Chow_support.Bitset}: the dense bitset
    underlying register masks and every data-flow vector. *)

module Bitset = Chow_support.Bitset
module IS = Set.Make (Int)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_list = Alcotest.(check (list int))

let test_empty () =
  let s = Bitset.create 100 in
  check "empty" true (Bitset.is_empty s);
  check_int "cardinal" 0 (Bitset.cardinal s);
  check_list "elements" [] (Bitset.elements s)

let test_set_clear () =
  let s = Bitset.create 130 in
  Bitset.set s 0;
  Bitset.set s 63;
  Bitset.set s 64;
  Bitset.set s 129;
  check_list "elements" [ 0; 63; 64; 129 ] (Bitset.elements s);
  check "mem 63" true (Bitset.mem s 63);
  check "mem 62" false (Bitset.mem s 62);
  Bitset.clear s 63;
  check "cleared" false (Bitset.mem s 63);
  check_int "cardinal" 3 (Bitset.cardinal s)

let test_bounds () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "set out of range"
    (Invalid_argument "Bitset: index out of range") (fun () ->
      Bitset.set s 10);
  Alcotest.check_raises "negative"
    (Invalid_argument "Bitset: index out of range") (fun () ->
      ignore (Bitset.mem s (-1)))

let test_capacity_mismatch () =
  let a = Bitset.create 10 and b = Bitset.create 11 in
  Alcotest.check_raises "union mismatch"
    (Invalid_argument "Bitset: capacity mismatch") (fun () ->
      Bitset.union_into a b)

(* the in-place operations applied to a fresh copy of [a] *)
let union a b = let r = Bitset.copy a in Bitset.union_into r b; r
let inter a b = let r = Bitset.copy a in Bitset.inter_into r b; r

let test_set_ops () =
  let a = Bitset.of_list 70 [ 1; 3; 5; 64 ] in
  let b = Bitset.of_list 70 [ 3; 4; 64; 69 ] in
  check_list "union" [ 1; 3; 4; 5; 64; 69 ] (Bitset.elements (union a b));
  check_list "inter" [ 3; 64 ] (Bitset.elements (inter a b));
  check_list "diff" [ 1; 5 ] (Bitset.elements (Bitset.diff a b));
  check "overlap" false (Bitset.is_empty (inter a b));
  check "no overlap" true
    (Bitset.is_empty
       (inter (Bitset.of_list 70 [ 0 ]) (Bitset.of_list 70 [ 1 ])));
  check "subset yes" true (Bitset.subset (Bitset.of_list 70 [ 3; 64 ]) a);
  check "subset no" false (Bitset.subset b a)

let test_assign_copy () =
  let a = Bitset.of_list 40 [ 7; 39 ] in
  let b = Bitset.copy a in
  Bitset.clear b 7;
  check "copy is independent" true (Bitset.mem a 7);
  let c = Bitset.create 40 in
  Bitset.assign c a;
  check "assign" true (Bitset.equal c a);
  Bitset.clear_all c;
  check "clear_all" true (Bitset.is_empty c);
  Bitset.set_all c;
  check_int "set_all" 40 (Bitset.cardinal c)

(* property tests against a reference implementation over int sets *)

let gen_elems n = QCheck.Gen.(list_size (int_bound 30) (int_bound (n - 1)))

let arb_pair n =
  QCheck.make
    QCheck.Gen.(pair (gen_elems n) (gen_elems n))
    ~print:(fun (a, b) ->
      Printf.sprintf "(%s, %s)"
        (String.concat ";" (List.map string_of_int a))
        (String.concat ";" (List.map string_of_int b)))

let model xs = IS.of_list xs

let prop_op name ~bitset_op ~model_op =
  QCheck.Test.make ~count:300 ~name (arb_pair 150) (fun (xs, ys) ->
      let a = Bitset.of_list 150 xs and b = Bitset.of_list 150 ys in
      let result = Bitset.elements (bitset_op a b) in
      let expected = IS.elements (model_op (model xs) (model ys)) in
      result = expected)

let prop_union = prop_op "union matches set model" ~bitset_op:union
    ~model_op:IS.union

let prop_inter = prop_op "inter matches set model" ~bitset_op:inter
    ~model_op:IS.inter

let prop_diff = prop_op "diff matches set model" ~bitset_op:Bitset.diff
    ~model_op:IS.diff

let prop_cardinal =
  QCheck.Test.make ~count:300 ~name:"cardinal matches set model"
    (arb_pair 150) (fun (xs, _) ->
      Bitset.cardinal (Bitset.of_list 150 xs) = IS.cardinal (model xs))

let prop_fold =
  QCheck.Test.make ~count:300 ~name:"fold visits elements in order"
    (arb_pair 150) (fun (xs, _) ->
      let s = Bitset.of_list 150 xs in
      let visited = List.rev (Bitset.fold (fun i acc -> i :: acc) s []) in
      visited = IS.elements (model xs))

(* word boundaries: 63 bits fill one word, so capacities 63/64 and
   126/127 cross from the one- and two-word literal sets to the next size;
   every operation is checked against a [bool array] model *)

let capacities = [| 1; 62; 63; 64; 125; 126; 127; 200 |]

let gen_bits n =
  let edges = List.filter (fun i -> i < n) [ 0; 1; 61; 62; 63; 64; 125; 126 ] in
  QCheck.Gen.(
    list_size (int_bound 20)
      (frequency
         [ (2, int_bound (n - 1)); (1, oneofl (n - 1 :: edges)) ]))

type case = { cap : int; xs : int list; ys : int list; zs : int list }

let arb_case =
  QCheck.make
    QCheck.Gen.(
      oneofa capacities >>= fun cap ->
      map3
        (fun xs ys zs -> { cap; xs; ys; zs })
        (gen_bits cap) (gen_bits cap) (gen_bits cap))
    ~print:(fun c ->
      let l xs = String.concat ";" (List.map string_of_int xs) in
      Printf.sprintf "cap %d, xs [%s], ys [%s], zs [%s]" c.cap (l c.xs)
        (l c.ys) (l c.zs))

let model_of n xs =
  let m = Array.make n false in
  List.iter (fun i -> m.(i) <- true) xs;
  m

let build n xs =
  let s = Bitset.create n in
  List.iter (Bitset.set s) xs;
  s

(* [s] holds exactly the model's bits: membership, count and [iter]'s
   increasing order *)
let agrees s m =
  let n = Array.length m in
  let members = List.filter (fun i -> m.(i)) (List.init n Fun.id) in
  let visited = ref [] in
  Bitset.iter (fun i -> visited := i :: !visited) s;
  List.for_all (fun i -> Bitset.mem s i = m.(i)) (List.init n Fun.id)
  && Bitset.cardinal s = List.length members
  && List.rev !visited = members
  && Bitset.is_empty s = (members = [])

let prop_word_boundaries =
  QCheck.Test.make ~count:500 ~name:"word boundaries match a bool-array model"
    arb_case (fun { cap = n; xs; ys; zs } ->
      let a = build n xs and b = build n ys in
      let ma = model_of n xs and mb = model_of n ys in
      (* [clear] removes [zs] from [a] *)
      List.iter (Bitset.clear a) zs;
      List.iter (fun i -> ma.(i) <- false) zs;
      let binop f g =
        let r = Bitset.copy a in
        f r b;
        agrees r (Array.init n (fun i -> g ma.(i) mb.(i)))
      in
      let subset_model x y =
        Array.for_all Fun.id (Array.init n (fun i -> (not x.(i)) || y.(i)))
      in
      let assigned = Bitset.create n in
      Bitset.assign assigned b;
      agrees a ma && agrees b mb
      && binop Bitset.union_into ( || )
      && binop Bitset.inter_into ( && )
      && binop Bitset.diff_into (fun x y -> x && not y)
      && Bitset.equal a b = (ma = mb)
      && Bitset.equal (Bitset.copy a) a
      && Bitset.subset a b = subset_model ma mb
      && Bitset.subset b a = subset_model mb ma
      && Bitset.subset a (union a b)
      && agrees assigned mb && Bitset.equal assigned b)

(* a copy (or an assigned set) shares no word with its source: mutating
   either side, in every word, leaves the other as it was *)
let prop_copy_independent =
  QCheck.Test.make ~count:300 ~name:"copies share no words with their source"
    arb_case (fun { cap = n; xs; ys; _ } ->
      let all = List.init n Fun.id in
      let fresh () = build n xs in
      let m = model_of n xs in
      let mutate s =
        List.iter (Bitset.set s) all;
        List.iter (Bitset.clear s) ys
      in
      let src = fresh () in
      let c = Bitset.copy src in
      mutate c;
      let ok1 = agrees src m in
      let src' = fresh () in
      let c' = Bitset.copy src' in
      mutate src';
      let ok2 = agrees c' m in
      let dst = Bitset.create n in
      let src'' = fresh () in
      Bitset.assign dst src'';
      mutate dst;
      let ok3 = agrees src'' m in
      Bitset.set_all src'';
      ok1 && ok2 && ok3
      && Bitset.cardinal dst = n - List.length (List.sort_uniq compare ys))

let suite =
  ( "bitset",
    [
      Alcotest.test_case "empty" `Quick test_empty;
      Alcotest.test_case "set/clear/mem" `Quick test_set_clear;
      Alcotest.test_case "bounds checking" `Quick test_bounds;
      Alcotest.test_case "capacity mismatch" `Quick test_capacity_mismatch;
      Alcotest.test_case "set operations" `Quick test_set_ops;
      Alcotest.test_case "assign/copy/fill" `Quick test_assign_copy;
      QCheck_alcotest.to_alcotest prop_union;
      QCheck_alcotest.to_alcotest prop_inter;
      QCheck_alcotest.to_alcotest prop_diff;
      QCheck_alcotest.to_alcotest prop_cardinal;
      QCheck_alcotest.to_alcotest prop_fold;
      QCheck_alcotest.to_alcotest prop_word_boundaries;
      QCheck_alcotest.to_alcotest prop_copy_independent;
    ] )
