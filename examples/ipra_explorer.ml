(** IPRA explorer: walks a program's call graph the way the one-pass
    allocator does — depth-first, callees before callers — showing the
    open/closed classification of §3, the register-usage masks each closed
    procedure publishes, and the parameter registers negotiated under §4.

    Run with: [dune exec examples/ipra_explorer.exe] *)

module Ir = Chow_ir.Ir
module Machine = Chow_machine.Machine
module Config = Chow_compiler.Config
module Pipeline = Chow_compiler.Pipeline
module Ipra = Chow_core.Ipra
module Usage = Chow_core.Usage
module Callgraph = Chow_core.Callgraph
module Alloc = Chow_core.Alloc_types

(* one of everything: a closed chain, recursion, an address-taken
   procedure, and an exported entry point *)
let source =
  {|
var dispatch;

proc tiny(x) { return x + 1; }

proc helper(a, b) {
  var t = tiny(a) * tiny(b);
  return t - a;
}

proc fib(n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}

proc hook(x) { return helper(x, x + 1); }

export proc api(n) { return helper(n, 2 * n); }

proc main() {
  dispatch = &hook;
  print(helper(3, 4));
  print(fib(10));
  print(api(5));
  print(dispatch(7));
}
|}

let pp_param_loc ppf = function
  | Alloc.Preg r -> Format.pp_print_string ppf (Machine.name r)
  | Alloc.Pstack -> Format.pp_print_string ppf "stack"

let () =
  let compiled = Pipeline.compile_source Config.o3_sw (Pipeline.Src source) in
  let o = Pipeline.run compiled in
  Format.printf "program output: %a@.@."
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Format.pp_print_int)
    o.Chow_sim.Sim.output;
  List.iter
    (fun (alloc : Ipra.t) ->
      let cg = alloc.Ipra.callgraph in
      Format.printf
        "processing order (depth-first, callees before callers):@.";
      List.iteri
        (fun i name -> Format.printf "  %d. %s@." (i + 1) name)
        (Callgraph.processing_order cg);
      Format.printf "@.";
      List.iter
        (fun (name, (res : Alloc.result)) ->
          let why_open =
            if not res.Alloc.r_open then "closed"
            else if name = "main" || name = "api" then
              "open: externally visible"
            else if name = "fib" then "open: recursive"
            else if name = "hook" then "open: address taken"
            else "open"
          in
          Format.printf "@[<v 2>%s — %s@," name why_open;
          (match Usage.find alloc.Ipra.usage name with
          | Some info ->
              Format.printf "publishes mask %a@," Machine.pp_mask
                info.Usage.mask;
              Format.printf "expects parameters in: %a@,"
                (Format.pp_print_list
                   ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
                   pp_param_loc)
                info.Usage.param_locs
          | None ->
              Format.printf
                "publishes nothing: callers assume the default convention@,");
          Format.printf "locally saved registers: %s@,"
            (if res.Alloc.r_contract_saves = [] then "(none)"
             else
               String.concat ", "
                 (List.map Machine.name res.Alloc.r_contract_saves));
          Format.printf "@]@.")
        alloc.Ipra.results)
    (Pipeline.allocs compiled);
  Format.printf
    "Note how the helpers publish small masks, letting every caller keep@.\
     values in the untouched registers across the calls, while fib, hook@.\
     and api fall back to the callee-saved contract (§3).@."
