(** See profile.mli.

    The key economy: penalty *classification* is static per pc.  The
    program's static view ({!Linked}) gives each pc's class (the
    {!Asm.tag} split into entry-save / exit-restore / call-site-save /
    call-site-restore / spill / stack-arg / data) and the call each
    around-call operation brackets inside its procedure, so class totals
    and the around-call share of every call site come from the per-pc
    execution counts after the run — no per-instruction hook.  Only two
    things are dynamic and use the {!Decode.hooks} call-path probes:
    charging each activation's *contract* operations to the call site that
    created it (segment accounting over the running totals: contract
    traffic executes only while its activation is on top, so the delta
    between two call/return boundaries belongs to the frame on top in
    between), and the call tree itself. *)

module Asm = Chow_codegen.Asm
module Linked = Chow_codegen.Linked
module Event = Chow_obs.Event
module Metrics = Chow_obs.Metrics
module Wire = Chow_support.Wire

type counters = {
  entry_saves : int;
  exit_restores : int;
  call_saves : int;
  call_restores : int;
  spill_loads : int;
  spill_stores : int;
  stackarg_loads : int;
  stackarg_stores : int;
  data_loads : int;
  data_stores : int;
}

type site = {
  s_site : int;
  s_caller : string;
  s_callee : string;
  s_calls : int;
  s_entry_saves : int;
  s_exit_restores : int;
  s_call_saves : int;
  s_call_restores : int;
}

type node = {
  n_id : int;
  n_parent : int;
  n_depth : int;
  n_proc : string;
  n_site : int;
  n_calls : int;
  n_flat_cycles : int;
  n_cum_cycles : int;
  n_flat_penalty : int;
  n_cum_penalty : int;
}

type report = {
  outcome : Decode.outcome;
  counters : counters;
  sites : site list;
  calltree : node list;
  tree_capped : int;
}

let penalty_total c =
  c.entry_saves + c.exit_restores + c.call_saves + c.call_restores

let m_p_entry_saves = Metrics.counter "sim.penalty.entry_saves"
let m_p_exit_restores = Metrics.counter "sim.penalty.exit_restores"
let m_p_call_saves = Metrics.counter "sim.penalty.call_saves"
let m_p_call_restores = Metrics.counter "sim.penalty.call_restores"
let m_p_spill_loads = Metrics.counter "sim.penalty.spill_loads"
let m_p_spill_stores = Metrics.counter "sim.penalty.spill_stores"
let m_p_stackarg_loads = Metrics.counter "sim.penalty.stackarg_loads"
let m_p_stackarg_stores = Metrics.counter "sim.penalty.stackarg_stores"
let m_p_tree_capped = Metrics.counter "sim.penalty.tree_capped"

let publish c =
  if Metrics.is_on () then begin
    Metrics.add m_p_entry_saves c.entry_saves;
    Metrics.add m_p_exit_restores c.exit_restores;
    Metrics.add m_p_call_saves c.call_saves;
    Metrics.add m_p_call_restores c.call_restores;
    Metrics.add m_p_spill_loads c.spill_loads;
    Metrics.add m_p_spill_stores c.spill_stores;
    Metrics.add m_p_stackarg_loads c.stackarg_loads;
    Metrics.add m_p_stackarg_stores c.stackarg_stores
  end

(* every distinct call path is one tree node; beyond [max_nodes] new paths
   collapse into their parent so branching recursion cannot explode *)
let default_max_nodes = 1 lsl 20

let run ?fuel ?mem_words ?check ?trace ?(trace_depth = 16)
    ?(trace_limit = 100_000) ?(max_nodes = default_max_nodes)
    (prog : Asm.program) : report =
  let code = prog.Asm.code in
  let ncode = Array.length code in
  let t = Event.span "decode" (fun () -> Decode.decode prog) in
  let v = Decode.linked t in
  let proc_at pc = Linked.proc_name v pc in
  let pc_buf = Array.make (max ncode 1) 0 in
  (* ----- call-tree nodes, id order = creation order (parents first) ----- *)
  let cap = ref 64 in
  let grow r pad n =
    let c = Array.length !r * 2 in
    let a = Array.make c pad in
    Array.blit !r 0 a 0 n;
    r := a
  in
  let nd_parent = ref (Array.make !cap (-1)) in
  let nd_site = ref (Array.make !cap (-1)) in
  let nd_name = ref (Array.make !cap "<program>") in
  let nd_depth = ref (Array.make !cap 0) in
  let nd_calls = ref (Array.make !cap 0) in
  let nd_flat_cyc = ref (Array.make !cap 0) in
  let nd_flat_pen = ref (Array.make !cap 0) in
  let n_nodes = ref 1 (* node 0: the root, "<program>" *) in
  let capped = ref 0 (* distinct call paths collapsed into their parent *) in
  let node_tbl : (int * int * int, int) Hashtbl.t = Hashtbl.create 1024 in
  let grow_nodes () =
    let n = !n_nodes in
    grow nd_parent (-1) n;
    grow nd_site (-1) n;
    grow nd_name "" n;
    grow nd_depth 0 n;
    grow nd_calls 0 n;
    grow nd_flat_cyc 0 n;
    grow nd_flat_pen 0 n;
    cap := Array.length !nd_parent
  in
  (* ----- activation stack mirrored by the profiler ----- *)
  let fcap = ref 64 in
  let st_site = ref (Array.make !fcap (-1)) in
  let st_node = ref (Array.make !fcap 0) in
  let st_es = ref (Array.make !fcap 0) in
  let st_xr = ref (Array.make !fcap 0) in
  let st_cyc0 = ref (Array.make !fcap 0) in
  let depth = ref 0 in
  let grow_frames () =
    let n = !depth in
    grow st_site (-1) n;
    grow st_node 0 n;
    grow st_es 0 n;
    grow st_xr 0 n;
    grow st_cyc0 0 n;
    fcap := Array.length !st_site
  in
  (* segment marks: the running totals at the previous call/return
     boundary; the delta since then belongs to the frame on top *)
  let seg_cs = ref 0 and seg_cr = ref 0 in
  let seg_as = ref 0 and seg_ar = ref 0 in
  let seg_cyc = ref 0 in
  (* per-site dynamic contract attribution, indexed by call-site pc *)
  let site_es = Array.make (max ncode 1) 0 in
  let site_xr = Array.make (max ncode 1) 0 in
  let flush cs cr as_ ar cyc =
    let node = if !depth = 0 then 0 else !st_node.(!depth - 1) in
    !nd_flat_cyc.(node) <- !nd_flat_cyc.(node) + (cyc - !seg_cyc);
    !nd_flat_pen.(node) <-
      !nd_flat_pen.(node)
      + (cs - !seg_cs) + (cr - !seg_cr) + (as_ - !seg_as) + (ar - !seg_ar);
    if !depth > 0 then begin
      let d = !depth - 1 in
      !st_es.(d) <- !st_es.(d) + (cs - !seg_cs);
      !st_xr.(d) <- !st_xr.(d) + (cr - !seg_cr)
    end;
    seg_cs := cs;
    seg_cr := cr;
    seg_as := as_;
    seg_ar := ar;
    seg_cyc := cyc
  in
  let tr = match trace with Some b -> b | None -> Event.trace_on () in
  let spans_emitted = ref 0 in
  (* spans are emitted when the activation ends, on the simulated
     timebase: 1 cycle = 1000 ns, i.e. 1 us in the trace viewer *)
  let emit_span d cyc_end =
    if
      tr
      && !spans_emitted < trace_limit
      && !nd_depth.(!st_node.(d)) <= trace_depth
    then begin
      incr spans_emitted;
      Event.span_at
        ~args:[ ("site", Event.Int !st_site.(d)) ]
        ~ts_ns:(!st_cyc0.(d) * 1000)
        ~dur_ns:((cyc_end - !st_cyc0.(d)) * 1000)
        !nd_name.(!st_node.(d))
    end
  in
  let pop_frame cyc =
    let d = !depth - 1 in
    depth := d;
    let s = !st_site.(d) in
    if s >= 0 && s < ncode then begin
      site_es.(s) <- site_es.(s) + !st_es.(d);
      site_xr.(s) <- site_xr.(s) + !st_xr.(d)
    end;
    emit_span d cyc
  in
  let hooks =
    {
      Decode.h_call =
        (fun ~site ~target ~cycles ~contract_saves ~contract_restores
             ~call_saves ~call_restores ->
          flush contract_saves contract_restores call_saves call_restores
            cycles;
          let parent = if !depth = 0 then 0 else !st_node.(!depth - 1) in
          let key = (parent, site, target) in
          let node =
            match Hashtbl.find_opt node_tbl key with
            | Some id -> id
            | None when !n_nodes >= max_nodes ->
                (* a new distinct path with no node left: its calls merge
                   into the parent, and the report must say so *)
                incr capped;
                parent
            | None ->
                let id = !n_nodes in
                if id = !cap then grow_nodes ();
                !nd_parent.(id) <- parent;
                !nd_site.(id) <- site;
                !nd_name.(id) <- proc_at target;
                !nd_depth.(id) <- !nd_depth.(parent) + 1;
                n_nodes := id + 1;
                Hashtbl.replace node_tbl key id;
                id
          in
          !nd_calls.(node) <- !nd_calls.(node) + 1;
          if !depth = !fcap then grow_frames ();
          let d = !depth in
          !st_site.(d) <- site;
          !st_node.(d) <- node;
          !st_es.(d) <- 0;
          !st_xr.(d) <- 0;
          (* the call instruction itself opens the callee's span *)
          !st_cyc0.(d) <- cycles - 1;
          depth := d + 1);
      Decode.h_return =
        (fun ~cycles ~contract_saves ~contract_restores ~call_saves
             ~call_restores ->
          flush contract_saves contract_restores call_saves call_restores
            cycles;
          if !depth > 0 then pop_frame cycles);
    }
  in
  let outcome =
    Event.span "sim-profile" (fun () ->
        Decode.execute ?fuel ?mem_words ?check ~profile:true ~hooks ~pc_buf t)
  in
  (* the final segment (last boundary to halt) and frames still live at
     halt, settled from the outcome's final totals *)
  flush
    (outcome.Decode.save_stores - outcome.Decode.call_save_stores)
    (outcome.Decode.save_loads - outcome.Decode.call_save_loads)
    outcome.Decode.call_save_stores outcome.Decode.call_save_loads
    outcome.Decode.cycles;
  while !depth > 0 do
    pop_frame outcome.Decode.cycles
  done;
  (* ----- static classification over the per-pc counts ----- *)
  let by_class = Array.make Linked.nclasses 0 in
  let site_as = Array.make (max ncode 1) 0 in
  let site_ar = Array.make (max ncode 1) 0 in
  let site_calls = Array.make (max ncode 1) 0 in
  for pc = 0 to ncode - 1 do
    let k = pc_buf.(pc) in
    if k > 0 then begin
      let c = v.Linked.cls.(pc) and s = v.Linked.bracket.(pc) in
      by_class.(c) <- by_class.(c) + k;
      if s >= 0 then begin
        if c = Linked.store Asm.Tcallsave then site_as.(s) <- site_as.(s) + k
        else site_ar.(s) <- site_ar.(s) + k
      end;
      if c = Linked.call || c = Linked.call_indirect then site_calls.(pc) <- k
    end
  done;
  let loads tag = by_class.(Linked.load tag)
  and stores tag = by_class.(Linked.store tag) in
  let counters =
    {
      entry_saves = stores Asm.Tsave;
      exit_restores = loads Asm.Tsave;
      call_saves = stores Asm.Tcallsave;
      call_restores = loads Asm.Tcallsave;
      spill_loads = loads Asm.Tscalar;
      spill_stores = stores Asm.Tscalar;
      stackarg_loads = loads Asm.Tstackarg;
      stackarg_stores = stores Asm.Tstackarg;
      data_loads = loads Asm.Tdata;
      data_stores = stores Asm.Tdata;
    }
  in
  publish counters;
  if Metrics.is_on () then Metrics.add m_p_tree_capped !capped;
  (* ----- per-site table ----- *)
  let sites = ref [] in
  for s = ncode - 1 downto 0 do
    if
      site_calls.(s) > 0
      || site_es.(s) + site_xr.(s) + site_as.(s) + site_ar.(s) > 0
    then
      sites :=
        {
          s_site = s;
          s_caller = proc_at s;
          s_callee =
            (match code.(s) with
            | Asm.Jal_pc tpc -> proc_at tpc
            | Asm.Jalr _ -> "<indirect>"
            | _ -> "?");
          s_calls = site_calls.(s);
          s_entry_saves = site_es.(s);
          s_exit_restores = site_xr.(s);
          s_call_saves = site_as.(s);
          s_call_restores = site_ar.(s);
        }
        :: !sites
  done;
  let site_weight s =
    s.s_entry_saves + s.s_exit_restores + s.s_call_saves + s.s_call_restores
  in
  let sites =
    List.sort
      (fun a b ->
        match compare (site_weight b) (site_weight a) with
        | 0 -> compare a.s_site b.s_site
        | c -> c)
      !sites
  in
  (* ----- call tree: cumulative pass (children have larger ids), then a
     preorder walk in creation order ----- *)
  let n = !n_nodes in
  !nd_calls.(0) <- 1;
  let cum_cyc = Array.init n (fun i -> !nd_flat_cyc.(i)) in
  let cum_pen = Array.init n (fun i -> !nd_flat_pen.(i)) in
  for id = n - 1 downto 1 do
    let p = !nd_parent.(id) in
    cum_cyc.(p) <- cum_cyc.(p) + cum_cyc.(id);
    cum_pen.(p) <- cum_pen.(p) + cum_pen.(id)
  done;
  let children = Array.make n [] in
  for id = n - 1 downto 1 do
    children.(!nd_parent.(id)) <- id :: children.(!nd_parent.(id))
  done;
  let order = ref [] in
  let stack = ref [ 0 ] in
  let continue = ref true in
  while !continue do
    match !stack with
    | [] -> continue := false
    | id :: rest ->
        order := id :: !order;
        stack := children.(id) @ rest
  done;
  let calltree =
    List.rev_map
      (fun id ->
        {
          n_id = id;
          n_parent = !nd_parent.(id);
          n_depth = !nd_depth.(id);
          n_proc = !nd_name.(id);
          n_site = !nd_site.(id);
          n_calls = !nd_calls.(id);
          n_flat_cycles = !nd_flat_cyc.(id);
          n_cum_cycles = cum_cyc.(id);
          n_flat_penalty = !nd_flat_pen.(id);
          n_cum_penalty = cum_pen.(id);
        })
      !order
  in
  { outcome; counters; sites; calltree; tree_capped = !capped }

(* ----- renderers ----- *)

let pp_penalty_report ?(limit = 20) ppf r =
  let c = r.counters in
  Format.fprintf ppf "@[<v>== dynamic penalty memory operations ==@,";
  let row name v = Format.fprintf ppf "%-26s %12d@," name v in
  row "entry saves (contract)" c.entry_saves;
  row "exit restores (contract)" c.exit_restores;
  row "call-site saves" c.call_saves;
  row "call-site restores" c.call_restores;
  row "save/restore total" (penalty_total c);
  row "spill loads" c.spill_loads;
  row "spill stores" c.spill_stores;
  row "stack-arg loads" c.stackarg_loads;
  row "stack-arg stores" c.stackarg_stores;
  row "data loads" c.data_loads;
  row "data stores" c.data_stores;
  let shown = min limit (List.length r.sites) in
  Format.fprintf ppf "@,== per call site (top %d of %d by save/restore ops) ==@,"
    shown (List.length r.sites);
  Format.fprintf ppf "%6s  %-16s %-16s %8s %9s %9s %9s %9s@," "site" "caller"
    "callee" "calls" "entry.sv" "exit.rs" "call.sv" "call.rs";
  List.iteri
    (fun i s ->
      if i < limit then
        Format.fprintf ppf "%6d  %-16s %-16s %8d %9d %9d %9d %9d@," s.s_site
          s.s_caller s.s_callee s.s_calls s.s_entry_saves s.s_exit_restores
          s.s_call_saves s.s_call_restores)
    r.sites;
  let omitted = List.length r.sites - shown in
  if omitted > 0 then
    Format.fprintf ppf "… %d more site%s omitted (raise --limit)@," omitted
      (if omitted = 1 then "" else "s");
  Format.fprintf ppf "@]"

let pp_calltree ?max_depth ppf r =
  let keep n =
    match max_depth with None -> true | Some d -> n.n_depth <= d
  in
  Format.fprintf ppf
    "@[<v>== call tree (calls, flat/cum cycles, flat/cum penalty ops) ==@,";
  Format.fprintf ppf "%9s %12s %12s %9s %9s  path@," "calls" "flat-cyc"
    "cum-cyc" "flat-pen" "cum-pen";
  List.iter
    (fun n ->
      if keep n then
        Format.fprintf ppf "%9d %12d %12d %9d %9d  %s%s%s@," n.n_calls
          n.n_flat_cycles n.n_cum_cycles n.n_flat_penalty n.n_cum_penalty
          (String.make (2 * n.n_depth) ' ')
          n.n_proc
          (if n.n_site >= 0 then Printf.sprintf " @%d" n.n_site else ""))
    r.calltree;
  if r.tree_capped > 0 then
    Format.fprintf ppf
      "… %d call%s on new paths collapsed into parent nodes (node cap)@,"
      r.tree_capped
      (if r.tree_capped = 1 then "" else "s");
  Format.fprintf ppf "@]"

(* ----- profile artifacts ("PWNP") -----

   The container is {!Chow_support.Wire}'s, shared with the "PWNO"
   object files: magic, little-endian u32 version and payload length,
   the payload's MD5 digest, then a varint payload.  Any damage —
   truncation, bit flips, version skew, trailing bytes — raises
   {!Corrupt} instead of mis-decoding into a plausible-but-wrong
   profile. *)

exception Corrupt = Wire.Corrupt

let magic = "PWNP"
let artifact_version = 1

type site_row = {
  r_caller : string;
  r_callee : string;
  r_ordinal : int;
  r_calls : int;
  r_penalty : int;
  r_cycles : int;
}

type artifact = {
  a_source_digest : string;
  a_config_fp : string;
  a_rows : site_row list;
}

let artifact ~source_digest ~config_fp (prog : Asm.program) (r : report) :
    artifact =
  let ordinal = (Linked.make prog).Linked.ordinal in
  (* cycles spent below each site, summed over the call-tree paths that
     pass through it — the tie-breaking rank signal after penalty *)
  let cyc : (int, int) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun n ->
      if n.n_site >= 0 then
        Hashtbl.replace cyc n.n_site
          (n.n_cum_cycles
          + Option.value ~default:0 (Hashtbl.find_opt cyc n.n_site)))
    r.calltree;
  let rows =
    List.filter_map
      (fun s ->
        (* stub and jalr sites have no (caller, callee, ordinal) identity *)
        match ordinal.(s.s_site) with
        | -1 -> None
        | o ->
            Some
              {
                r_caller = s.s_caller;
                r_callee = s.s_callee;
                r_ordinal = o;
                r_calls = s.s_calls;
                r_penalty =
                  s.s_entry_saves + s.s_exit_restores + s.s_call_saves
                  + s.s_call_restores;
                r_cycles =
                  Option.value ~default:0 (Hashtbl.find_opt cyc s.s_site);
              })
      r.sites
  in
  let rows =
    List.sort
      (fun a b ->
        match compare b.r_penalty a.r_penalty with
        | 0 -> (
            match compare b.r_cycles a.r_cycles with
            | 0 ->
                compare
                  (a.r_caller, a.r_callee, a.r_ordinal)
                  (b.r_caller, b.r_callee, b.r_ordinal)
            | c -> c)
        | c -> c)
      rows
  in
  { a_source_digest = source_digest; a_config_fp = config_fp; a_rows = rows }

let put_row buf row =
  Wire.put_string buf row.r_caller;
  Wire.put_string buf row.r_callee;
  Wire.put_uint buf row.r_ordinal;
  Wire.put_uint buf row.r_calls;
  Wire.put_uint buf row.r_penalty;
  Wire.put_uint buf row.r_cycles

let get_row r =
  let r_caller = Wire.get_string r in
  let r_callee = Wire.get_string r in
  let r_ordinal = Wire.get_uint r in
  let r_calls = Wire.get_uint r in
  let r_penalty = Wire.get_uint r in
  let r_cycles = Wire.get_uint r in
  { r_caller; r_callee; r_ordinal; r_calls; r_penalty; r_cycles }

let write_artifact (a : artifact) : string =
  Wire.seal ~magic ~version:artifact_version (fun buf ->
      Wire.put_string buf a.a_source_digest;
      Wire.put_string buf a.a_config_fp;
      Wire.put_list buf put_row a.a_rows)

let read_artifact (bytes : string) : artifact =
  Wire.unseal ~magic ~version:artifact_version
    (fun r ->
      let a_source_digest = Wire.get_string r in
      let a_config_fp = Wire.get_string r in
      let a_rows = Wire.get_list r get_row in
      { a_source_digest; a_config_fp; a_rows })
    bytes

let save_artifact ~path (a : artifact) = Wire.save ~path (write_artifact a)
let load_artifact path : artifact = read_artifact (Wire.load path)
