(** Static data layout and program linking.

    [layout] assigns every global a base address in the data segment.
    [link] concatenates a startup stub ([jal main; halt]) with the emitted
    procedures, resolves block labels to absolute instruction addresses, and
    rewrites symbolic references ([Jal], [Lproc]) to code addresses, so that
    procedure-address values are plain integers the simulator can [jalr]
    through. *)

module Ir = Chow_ir.Ir
module Machine = Chow_machine.Machine

let layout ?(base = 0) (prog : Ir.prog) =
  let table = Hashtbl.create 16 in
  let next = ref base in
  let init = ref [] in
  List.iter
    (fun (g, def) ->
      Hashtbl.replace table g !next;
      match def with
      | Ir.Gscalar v ->
          if v <> 0 then init := (!next, v) :: !init;
          incr next
      | Ir.Garray (size, vs) ->
          List.iteri
            (fun i v -> if v <> 0 then init := (!next + i, v) :: !init)
            vs;
          next := !next + size)
    prog.globals;
  (table, !next, List.rev !init)

exception Undefined_procedure of string
exception Error of string

let error fmt = Printf.ksprintf (fun msg -> raise (Error msg)) fmt

module Names = Hashtbl.Make (String)

let link ~(metas : (string * Asm.meta) list) (procs : Asm.proc_code list)
    ~data_size ~data_init : Asm.program =
  (* pass 1: assign addresses.  The stub occupies pc 0 and 1.  Each
     procedure's labels resolve through an array sized by its item count
     (every label precedes an item of its own, so a well-formed label is
     below it); labels come from artifacts, so one out of that range is
     rejected before it can size anything. *)
  let stub_len = 2 in
  let entries = Names.create 64 in
  let proc_addrs = ref [] in
  let pc = ref stub_len in
  let label_pcs =
    List.map
      (fun p ->
        let name = p.Asm.pc_name in
        if Names.mem entries name then
          error "procedure %s is defined more than once" name;
        Names.add entries name !pc;
        proc_addrs := (name, !pc) :: !proc_addrs;
        let n = List.length p.Asm.pc_items in
        let pcs = Array.make n (-1) in
        List.iter
          (function
            | Asm.Label l ->
                if l < 0 || l >= n then
                  error "%s: label %d is out of range" name l;
                if pcs.(l) >= 0 then
                  error "%s: label %d is defined more than once" name l;
                pcs.(l) <- !pc
            | Asm.Inst _ -> incr pc)
          p.Asm.pc_items;
        pcs)
      procs
  in
  let proc_addrs = List.rev !proc_addrs in
  let code_len = !pc in
  let addr_of_proc f =
    match Names.find_opt entries f with
    | Some a -> a
    | None -> raise (Undefined_procedure f)
  in
  (* pass 2: resolve *)
  let code = Array.make code_len Asm.Halt in
  code.(0) <- Asm.Jal_pc (addr_of_proc "main");
  code.(1) <- Asm.Halt;
  let pc = ref stub_len in
  List.iter2
    (fun p pcs ->
      let resolve l =
        if l < 0 || l >= Array.length pcs || pcs.(l) < 0 then
          error "%s: branch to label %d, which it does not define"
            p.Asm.pc_name l;
        pcs.(l)
      in
      List.iter
        (function
          | Asm.Label _ -> ()
          | Asm.Inst i ->
              let i' =
                match i with
                | Asm.B (op, a, b, l) -> Asm.B (op, a, b, resolve l)
                | Asm.J l -> Asm.J (resolve l)
                | Asm.Jal f -> Asm.Jal_pc (addr_of_proc f)
                | Asm.Lproc (r, f) -> Asm.Li (r, addr_of_proc f)
                | Asm.Li _ | Asm.Move _ | Asm.Neg _ | Asm.Not _ | Asm.Binop _
                | Asm.Binopi _ | Asm.Cmp _ | Asm.Cmpi _ | Asm.Lw _ | Asm.Sw _
                | Asm.Jal_pc _ | Asm.Jalr _ | Asm.Jr | Asm.Print _ | Asm.Halt
                  ->
                    i
              in
              code.(!pc) <- i';
              incr pc)
        p.Asm.pc_items)
    procs label_pcs;
  let metas =
    List.filter_map
      (fun (name, m) ->
        Option.map (fun a -> (a, m)) (Names.find_opt entries name))
      metas
  in
  { Asm.code; entry = 0; proc_addrs; metas; data_size; data_init }
