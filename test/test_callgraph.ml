(** Tests for call-graph construction, depth-first ordering and the §3
    open/closed classification. *)

module Ir = Chow_ir.Ir
module Lower = Chow_frontend.Lower
module Callgraph = Chow_core.Callgraph
module Builder = Chow_ir.Builder

let build src = Callgraph.build (Lower.compile_unit src)

let src_basic =
  {|
proc leaf1() { return 1; }
proc leaf2() { return 2; }
proc mid() { return leaf1() + leaf2(); }
proc main() { print(mid()); }
|}

let test_order_callees_first () =
  let cg = build src_basic in
  let order = Callgraph.processing_order cg in
  let pos name =
    let rec go i = function
      | [] -> Alcotest.failf "%s missing from order" name
      | x :: _ when x = name -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 order
  in
  Alcotest.(check bool) "leaf1 before mid" true (pos "leaf1" < pos "mid");
  Alcotest.(check bool) "leaf2 before mid" true (pos "leaf2" < pos "mid");
  Alcotest.(check bool) "mid before main" true (pos "mid" < pos "main")

let test_open_classification () =
  let cg =
    build
      {|
proc closed1() { return 1; }
proc selfrec(n) { if (n <= 0) { return 0; } return selfrec(n - 1); }
proc mutual_a(n) { if (n <= 0) { return 0; } return mutual_b(n - 1); }
proc mutual_b(n) { return mutual_a(n); }
proc pointee(x) { return x; }
export proc visible() { return 2; }
proc calls_indirect() { var p = &pointee; return p(1); }
proc main() {
  print(closed1() + selfrec(3) + mutual_a(4) + visible() + calls_indirect());
}
|}
  in
  let check msg name expected =
    Alcotest.(check bool) msg expected (Callgraph.is_open cg name)
  in
  check "main is open" "main" true;
  check "exported is open" "visible" true;
  check "self-recursive is open" "selfrec" true;
  check "mutual_a is open" "mutual_a" true;
  check "mutual_b is open" "mutual_b" true;
  check "address-taken is open" "pointee" true;
  check "closed1 is closed" "closed1" false;
  (* containing an indirect call does not make the container open *)
  check "calls_indirect is closed" "calls_indirect" false

let test_all_procs_in_order () =
  let cg = build src_basic in
  Alcotest.(check int) "all four procs ordered" 4
    (List.length (Callgraph.processing_order cg))

let test_direct_callees () =
  let cg = build src_basic in
  Alcotest.(check (list string)) "mid's callees" [ "leaf1"; "leaf2" ]
    (List.sort compare (Callgraph.direct_callees cg "mid"));
  Alcotest.(check (list string)) "leaf has none" []
    (Callgraph.direct_callees cg "leaf1")

let test_extern_calls_ignored_in_graph () =
  let cg =
    build
      {|
extern proc outside(a);
proc caller() { return outside(1); }
proc main() { print(caller()); }
|}
  in
  Alcotest.(check (list string)) "extern not a node" []
    (Callgraph.direct_callees cg "caller");
  Alcotest.(check bool) "caller still closed" false
    (Callgraph.is_open cg "caller")

let test_scc_big_cycle () =
  let cg =
    build
      {|
proc a(n) { if (n <= 0) { return 0; } return b(n - 1); }
proc b(n) { return c(n); }
proc c(n) { return a(n); }
proc entry(n) { return a(n); }
proc main() { print(entry(5)); }
|}
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " in cycle is open") true
        (Callgraph.is_open cg name))
    [ "a"; "b"; "c" ];
  Alcotest.(check bool) "entry outside cycle is closed" false
    (Callgraph.is_open cg "entry");
  (* the cycle is still ordered before its caller *)
  let order = Callgraph.processing_order cg in
  let pos name =
    let rec go i = function
      | [] -> -1
      | x :: _ when x = name -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 order
  in
  Alcotest.(check bool) "cycle before entry" true (pos "a" < pos "entry")

(* ----- the index-based graph against a name-keyed oracle ----- *)

(* The string-keyed call graph the index-based one replaced: Tarjan, the
   open set and the wave levels over [Hashtbl]s keyed by name, callees
   sorted by polymorphic [compare]. *)
module Oracle = struct
  type t = {
    order : string list;
    wave_list : string list list;
    open_set : (string, unit) Hashtbl.t;
    callees : (string, string list) Hashtbl.t;
  }

  let is_open t name = Hashtbl.mem t.open_set name
  let direct_callees t name =
    Option.value ~default:[] (Hashtbl.find_opt t.callees name)

  let sccs nodes succs =
    let index = Hashtbl.create 16 in
    let lowlink = Hashtbl.create 16 in
    let on_stack = Hashtbl.create 16 in
    let stack = ref [] in
    let counter = ref 0 in
    let components = ref [] in
    let rec strongconnect v =
      Hashtbl.replace index v !counter;
      Hashtbl.replace lowlink v !counter;
      incr counter;
      stack := v :: !stack;
      Hashtbl.replace on_stack v ();
      List.iter
        (fun w ->
          if not (Hashtbl.mem index w) then begin
            strongconnect w;
            Hashtbl.replace lowlink v
              (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
          end
          else if Hashtbl.mem on_stack w then
            Hashtbl.replace lowlink v
              (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
        (succs v);
      if Hashtbl.find lowlink v = Hashtbl.find index v then begin
        let rec pop acc =
          match !stack with
          | [] -> acc
          | w :: rest ->
              stack := rest;
              Hashtbl.remove on_stack w;
              if w = v then w :: acc else pop (w :: acc)
        in
        components := pop [] :: !components
      end
    in
    List.iter
      (fun v -> if not (Hashtbl.mem index v) then strongconnect v)
      nodes;
    List.rev !components

  let build (prog : Ir.prog) =
    let defined = Hashtbl.create 16 in
    List.iter (fun p -> Hashtbl.replace defined p.Ir.pname ()) prog.procs;
    let callees = Hashtbl.create 16 in
    List.iter
      (fun p ->
        let direct =
          Ir.direct_callees p
          |> List.filter (Hashtbl.mem defined)
          |> List.sort_uniq compare
        in
        Hashtbl.replace callees p.Ir.pname direct)
      prog.procs;
    let nodes = List.map (fun p -> p.Ir.pname) prog.procs in
    let succs v = Option.value ~default:[] (Hashtbl.find_opt callees v) in
    let components = sccs nodes succs in
    let open_set = Hashtbl.create 16 in
    let mark name = Hashtbl.replace open_set name () in
    List.iter
      (fun comp ->
        match comp with
        | [ single ] -> if List.mem single (succs single) then mark single
        | _ :: _ :: _ -> List.iter mark comp
        | [] -> ())
      components;
    List.iter (fun p -> if p.Ir.exported then mark p.Ir.pname) prog.procs;
    List.iter mark (Ir.address_taken prog);
    let comps = Array.of_list components in
    let ncomps = Array.length comps in
    let comp_of = Hashtbl.create 16 in
    Array.iteri
      (fun i comp -> List.iter (fun n -> Hashtbl.replace comp_of n i) comp)
      comps;
    let level = Array.make ncomps 0 in
    Array.iteri
      (fun i comp ->
        level.(i) <-
          List.fold_left
            (fun acc n ->
              List.fold_left
                (fun acc callee ->
                  let j = Hashtbl.find comp_of callee in
                  if j = i then acc else max acc (level.(j) + 1))
                acc (succs n))
            0 comp)
      comps;
    let nwaves = Array.fold_left (fun acc l -> max acc (l + 1)) 0 level in
    let buckets = Array.make (max 1 nwaves) [] in
    for i = ncomps - 1 downto 0 do
      buckets.(level.(i)) <- comps.(i) :: buckets.(level.(i))
    done;
    let wave_list =
      Array.to_list buckets
      |> List.filter_map (fun ws ->
             match List.concat ws with [] -> None | w -> Some w)
    in
    { order = List.concat wave_list; wave_list; open_set; callees }
end

(* names whose [String.compare] order differs from definition order *)
let name_pool =
  [| "main"; "zeta"; "b"; "alpha"; "x10"; "x2"; "Mid"; "aa"; "leaf" |]
let externs = [ "ext_a"; "Ext_b" ]

type gproc = {
  g_calls : int list;  (** indices into names @ externs, duplicates kept *)
  g_taken : int list;
  g_exported : bool;
}

let gen_graph =
  let open QCheck.Gen in
  int_range 1 (Array.length name_pool) >>= fun n ->
  shuffle_l (Array.to_list name_pool) >>= fun names ->
  let names = Array.sub (Array.of_list names) 0 n in
  let targets = n + List.length externs in
  let gen_proc =
    map3
      (fun g_calls g_taken g_exported -> { g_calls; g_taken; g_exported })
      (list_size (int_bound 6) (int_bound (targets - 1)))
      (frequency
         [
           (3, return []);
           (1, list_size (int_range 1 2) (int_bound (targets - 1)));
         ])
      (frequency [ (4, return false); (1, return true) ])
  in
  map (fun procs -> (names, procs)) (array_repeat n gen_proc)

let prog_of (names, procs) =
  let target i =
    if i < Array.length names then names.(i)
    else List.nth externs (i - Array.length names)
  in
  let proc i g =
    let b = Builder.create names.(i) ~exported:g.g_exported in
    (* the calls straddle two blocks *)
    let half = List.length g.g_calls / 2 in
    let call k f =
      if k = half then begin
        let next = Builder.new_block b in
        Builder.terminate b (Ir.Jump next);
        Builder.switch_to b next
      end;
      Builder.emit b
        (Ir.Call { target = Ir.Direct (target f); args = []; ret = None })
    in
    List.iteri call g.g_calls;
    List.iter
      (fun f ->
        let v = Builder.new_vreg b in
        Builder.emit b (Ir.Addr_of_proc (v, target f)))
      g.g_taken;
    Builder.terminate b (Ir.Ret None);
    Builder.finish b
  in
  { Ir.procs = Array.to_list (Array.mapi proc procs); globals = []; externs }

let print_graph (names, procs) =
  String.concat "\n"
    (Array.to_list
       (Array.mapi
          (fun i g ->
            let l xs = String.concat "," (List.map string_of_int xs) in
            Printf.sprintf "%s%s calls [%s] takes [%s]" names.(i)
              (if g.g_exported then " (export)" else "")
              (l g.g_calls) (l g.g_taken))
          procs))

let prop_matches_oracle =
  QCheck.Test.make ~count:1000 ~name:"index graph equals the name-keyed oracle"
    (QCheck.make gen_graph ~print:print_graph) (fun ((names, _) as g) ->
      let prog = prog_of g in
      let cg = Callgraph.build prog and o = Oracle.build prog in
      let queried = Array.to_list names @ externs @ [ "undefined" ] in
      Callgraph.processing_order cg = o.Oracle.order
      && Callgraph.waves cg = o.Oracle.wave_list
      && List.map (fun p -> List.map (fun p -> p.Ir.pname) p)
           (Callgraph.proc_waves cg)
         = o.Oracle.wave_list
      && List.for_all
           (fun nm -> Callgraph.is_open cg nm = Oracle.is_open o nm)
           queried
      && List.for_all
           (fun nm ->
             Callgraph.direct_callees cg nm = Oracle.direct_callees o nm)
           queried)

let suite =
  ( "callgraph",
    [
      Alcotest.test_case "callees ordered first" `Quick
        test_order_callees_first;
      Alcotest.test_case "open/closed classification" `Quick
        test_open_classification;
      Alcotest.test_case "order covers all procs" `Quick
        test_all_procs_in_order;
      Alcotest.test_case "direct callees" `Quick test_direct_callees;
      Alcotest.test_case "extern callees" `Quick
        test_extern_calls_ignored_in_graph;
      Alcotest.test_case "three-procedure cycle" `Quick test_scc_big_cycle;
      QCheck_alcotest.to_alcotest prop_matches_oracle;
    ] )
