(** Register allocation as a first-class strategy.

    This module is the single seam between the allocation strategies and
    everything that consumes an allocation: the {!Ipra} driver calls
    {!allocate}, and a strategy is any module matching {!S} — take a
    procedure plus its IPRA context, return the
    {!Alloc_types.result}/usage-summary/stats triple that shrink-wrapping,
    code generation and the penalty metrics already understand.  The
    strategy-independent machinery (analyses before the decision, the
    contract/placement/mask derivation after it) lives in {!Alloc_shared},
    so a new strategy is only the decision itself.

    Three strategies ship:

    - [chow] — the paper's priority-based coloring with per
      variable-register priorities, §4 affinities and live-range
      splitting ({!Coloring});
    - [linear] — a classic linear scan: fast, no cost model, no
      splitting ({!Strategy_linear});
    - [spill-all] — the spill-everywhere zero point
      ({!Strategy_spillall}).

    All three feed IPRA masks and shrink-wrapping through the same
    contract, so they compose with every pipeline feature and are
    directly comparable on the measured save/restore traffic — the
    strategy × workload matrix of [bench --alloc]. *)

module type S = sig
  val name : string

  val allocate :
    ?explain:Coloring.explanation ->
    Chow_machine.Machine.config ->
    Alloc_shared.mode ->
    Chow_ir.Ir.proc ->
    Alloc_types.result * Usage.info option * Alloc_shared.stats
end

type strategy = Chow | Linear | Spill_all

let all = [ Chow; Linear; Spill_all ]

let to_string = function
  | Chow -> "chow"
  | Linear -> "linear"
  | Spill_all -> "spill-all"

let of_string = function
  | "chow" -> Some Chow
  | "linear" -> Some Linear
  | "spill-all" | "spill_all" | "spillall" -> Some Spill_all
  | _ -> None

let pp ppf s = Format.pp_print_string ppf (to_string s)

module Strategy_chow : S = struct
  let name = "chow"
  let allocate = Coloring.allocate
end

let strategy_chow : (module S) = (module Strategy_chow)
let strategy_linear : (module S) = (module Strategy_linear)
let strategy_spill_all : (module S) = (module Strategy_spillall)

let of_strategy : strategy -> (module S) = function
  | Chow -> strategy_chow
  | Linear -> strategy_linear
  | Spill_all -> strategy_spill_all

let allocate strategy ?explain config mode p =
  let (module M : S) = of_strategy strategy in
  M.allocate ?explain config mode p
