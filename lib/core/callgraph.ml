(** Program call graph, depth-first processing order, and the open/closed
    classification of §3.

    A procedure is {e open} when some caller may be processed after it or is
    unknown to the compiler:
    - it is externally visible ([export]ed, or [main]);
    - its address is taken, so it may be called indirectly;
    - it takes part in recursion (a call-graph cycle, including self-calls).

    All other procedures are {e closed}: every caller is compiled later in
    the depth-first order and can consume their register-usage summary.

    The graph is built over procedure indices: procedure [i] is the [i]th
    of [prog.procs], each call site's name is resolved once, and Tarjan's
    algorithm, the recursion test and the wave levelling run on [int]
    arrays.  Each procedure's callees are sorted by name, so the depth-first
    walk, and with it every component and wave, is the one a name-keyed
    graph walking its callees in [String.compare] order produces.
    Procedure names are distinct ([Verify.check_prog]); a repeated name
    resolves to its first definition. *)

module Ir = Chow_ir.Ir

type t = {
  procs : Ir.proc array;  (** node [i] is the [i]th procedure *)
  index : (string, int) Hashtbl.t;  (** name -> node *)
  callees : int array array;  (** direct callees, deduped, by name *)
  open_ : bool array;
  taken_undefined : string list;
      (** address-taken names the program does not define: open too *)
  wave_nodes : int list list;  (** the dependency waves, as nodes *)
}

let node t name = Hashtbl.find_opt t.index name
let name_of t i = t.procs.(i).Ir.pname

let is_open t name =
  match node t name with
  | Some i -> t.open_.(i)
  | None -> List.mem name t.taken_undefined

let waves t = List.map (List.map (name_of t)) t.wave_nodes
let processing_order t = List.concat (waves t)
let proc_waves t = List.map (List.map (fun i -> t.procs.(i))) t.wave_nodes

let direct_callees t name =
  match node t name with
  | Some i ->
      Array.fold_right (fun j acc -> name_of t j :: acc) t.callees.(i) []
  | None -> []

(* Tarjan's strongly-connected components over nodes [0, n).  Components
   are returned in emission order, which is reverse topological (callees
   before callers): exactly the paper's depth-first processing order.  A
   component lists its members in the order they were reached. *)
let sccs ~roots (succs : int array array) =
  let n = Array.length succs in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let components = ref [] in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    let vs = succs.(v) in
    for k = 0 to Array.length vs - 1 do
      let w = vs.(k) in
      if index.(w) < 0 then begin
        strongconnect w;
        lowlink.(v) <- min lowlink.(v) lowlink.(w)
      end
      else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
    done;
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
            stack := rest;
            on_stack.(w) <- false;
            if w = v then w :: acc else pop (w :: acc)
      in
      components := pop [] :: !components
    end
  in
  for v = 0 to n - 1 do
    if roots v && index.(v) < 0 then strongconnect v
  done;
  List.rev !components

let build (prog : Ir.prog) =
  let procs = Array.of_list prog.procs in
  let n = Array.length procs in
  let index = Hashtbl.create (2 * n) in
  Array.iteri
    (fun i p ->
      if not (Hashtbl.mem index p.Ir.pname) then Hashtbl.add index p.Ir.pname i)
    procs;
  let by_name a b = String.compare procs.(a).Ir.pname procs.(b).Ir.pname in
  let callees =
    Array.map
      (fun p ->
        Ir.direct_callees p
        |> List.filter_map (Hashtbl.find_opt index)
        |> List.sort_uniq by_name |> Array.of_list)
      procs
  in
  (* a repeated name is not a node of its own *)
  let roots i = Hashtbl.find index procs.(i).Ir.pname = i in
  let components = Array.of_list (sccs ~roots callees) in
  let open_ = Array.make n false in
  (* recursion: non-trivial SCCs and self-loops *)
  Array.iter
    (function
      | [ single ] ->
          if Array.mem single callees.(single) then open_.(single) <- true
      | comp -> List.iter (fun i -> open_.(i) <- true) comp)
    components;
  (* visibility: exported procedures (main included) and taken
     addresses *)
  Array.iteri (fun i p -> if p.Ir.exported then open_.(i) <- true) procs;
  let taken_undefined = ref [] in
  List.iter
    (fun f ->
      match Hashtbl.find_opt index f with
      | Some i -> open_.(i) <- true
      | None -> taken_undefined := f :: !taken_undefined)
    (Ir.address_taken prog);
  (* Level the SCC condensation into dependency waves: a component's wave is
     one past the deepest wave among the components it calls into, so every
     inter-component callee of a wave-k procedure lives in some wave < k
     (intra-component callees — recursion — share the wave; they are open
     and never consume each other's summaries).  Tarjan emits callees
     first, so each component's callee components are already leveled when
     it is reached.  [processing_order] is the concatenation of the waves —
     still a callees-before-callers topological order, with the emission
     order kept inside each wave for determinism. *)
  let ncomps = Array.length components in
  let comp_of = Array.make n (-1) in
  Array.iteri
    (fun c comp -> List.iter (fun i -> comp_of.(i) <- c) comp)
    components;
  let level = Array.make ncomps 0 in
  Array.iteri
    (fun c comp ->
      List.iter
        (fun i ->
          Array.iter
            (fun callee ->
              let d = comp_of.(callee) in
              if d <> c then level.(c) <- max level.(c) (level.(d) + 1))
            callees.(i))
        comp)
    components;
  let nwaves = Array.fold_left (fun acc l -> max acc (l + 1)) 0 level in
  let buckets = Array.make (max 1 nwaves) [] in
  for c = ncomps - 1 downto 0 do
    buckets.(level.(c)) <- components.(c) :: buckets.(level.(c))
  done;
  let wave_nodes =
    Array.to_list buckets
    |> List.filter_map (fun ws ->
           match List.concat ws with [] -> None | w -> Some w)
  in
  {
    procs;
    index;
    callees;
    open_;
    taken_undefined = !taken_undefined;
    wave_nodes;
  }
