(* Vectorizer configuration: which algorithm variant runs and on what
   machine model.  The three modes correspond to the paper's evaluated
   configurations:

   - [Vanilla]: bottom-up SLP as in LLVM, with the basic commutative
     operand swap;
   - [Lslp]: vanilla + Multi-Nodes over a single commutative opcode
     with look-ahead operand reordering (the paper's baseline, [9]);
   - [Snslp]: the Super-Node — Multi-Nodes extended with inverse
     elements, APO-checked leaf reordering and trunk movement. *)

open Snslp_costmodel

type mode = Vanilla | Lslp | Snslp

let mode_to_string = function Vanilla -> "slp" | Lslp -> "lslp" | Snslp -> "sn-slp"

let mode_of_string = function
  | "slp" | "vanilla" -> Some Vanilla
  | "lslp" -> Some Lslp
  | "sn-slp" | "snslp" -> Some Snslp
  | _ -> None

(* Statement-packing strategy.  [Greedy] is the paper's root-first
   builder, untouched (bit-identical legacy path).  [Global] runs the
   greedy path as the incumbent and then a goSLP-style global search
   over enumerated pack candidates (beam search with a
   branch-and-bound admissible bound, pure OCaml), replays the best
   plans, and keeps whichever result the machine-model static cost
   ranks cheapest — greedy on ties, so Global is never worse than
   Greedy under that metric.  [beam] bounds the search frontier
   (beam <= 1 degenerates to the greedy incumbent alone, reproducing
   [Greedy] bit-identically); [node_budget] caps the total SLP-graph
   nodes built during candidate enumeration. *)
type packing = Greedy | Global of { beam : int; node_budget : int }

let default_beam = 4
let default_node_budget = 4096

let packing_to_string = function
  | Greedy -> "greedy"
  | Global { beam; node_budget } ->
      if node_budget = default_node_budget then Printf.sprintf "global:%d" beam
      else Printf.sprintf "global:%d:%d" beam node_budget

(* Accepts "greedy", "global", "global:BEAM" and "global:BEAM:BUDGET". *)
let packing_of_string s =
  match String.split_on_char ':' s with
  | [ "greedy" ] -> Some Greedy
  | [ "global" ] -> Some (Global { beam = default_beam; node_budget = default_node_budget })
  | [ "global"; beam ] -> (
      match int_of_string_opt beam with
      | Some beam when beam >= 1 ->
          Some (Global { beam; node_budget = default_node_budget })
      | _ -> None)
  | [ "global"; beam; budget ] -> (
      match (int_of_string_opt beam, int_of_string_opt budget) with
      | Some beam, Some node_budget when beam >= 1 && node_budget >= 0 ->
          Some (Global { beam; node_budget })
      | _ -> None)
  | _ -> None

(* Loop-unroll policy, consumed as is by the pipeline's unroll pass
   (the pass itself lives in Snslp_passes, which depends on this
   module, so the policy is declared here).  [Unroll_auto]
   fully unrolls counted loops with known trip counts under the size
   budget and partially unrolls the rest; it is the default because it
   is a no-op on loop-free functions, keeping every legacy output
   bit-identical.  Changes the emitted IR, so it is part of
   {!fingerprint} — compile-cache entries never cross unroll
   policies. *)
type unroll = No_unroll | Unroll_by of int | Unroll_auto

let unroll_to_string = function
  | No_unroll -> "none"
  | Unroll_by n -> string_of_int n
  | Unroll_auto -> "auto"

let unroll_of_string = function
  | "none" | "off" | "0" | "1" -> Some No_unroll
  | "auto" -> Some Unroll_auto
  | s -> (
      match int_of_string_opt s with
      | Some n when n >= 2 -> Some (Unroll_by n)
      | _ -> None)

type t = {
  mode : mode;
  target : Target.t;
  model : Model.t;
  lookahead_depth : int; (* recursion depth of the look-ahead score *)
  unroll : unroll;
      (* loop-unroll policy run ahead of vectorization; changes the
         emitted IR, so it is part of {!fingerprint}. *)
  packing : packing;
      (* statement-packing strategy: the greedy root-first builder, or
         the global beam/branch-and-bound pack selector.  Changes the
         emitted IR, so it is part of {!fingerprint}. *)
  revec : bool;
      (* run the Revec-style re-widening pass after the vectorizer:
         adjacent same-shape vector bundles re-pack into wider
         registers when [target] has spare lanes.  Changes the emitted
         IR, so it is part of {!fingerprint}.  Default off — legacy
         outputs stay bit-identical. *)
}

let default =
  {
    mode = Snslp;
    target = Target.sse;
    model = Model.paper;
    lookahead_depth = 2;
    unroll = Unroll_auto;
    packing = Greedy;
    revec = false;
  }

let vanilla = { default with mode = Vanilla }
let lslp = { default with mode = Lslp }
let snslp = { default with mode = Snslp }

let with_mode mode t = { t with mode }

(* The output-relevant fingerprint, for content-addressed compile
   caching: two configs with equal fingerprints produce bit-identical
   optimized IR for the same input.  Audited against every field of
   [t]: [mode], [target] (the [/tg] component — names are unique in
   [Target], and bundle widths derive from [Target.lanes_for], so no
   two targets may ever share a cache entry), [model] (likewise),
   [lookahead_depth], [packing], [unroll] and [revec] all steer what
   the pipeline emits and are all included.  Knobs that change only
   how fast the pipeline runs or how much it checks (the driver's
   fan-out, per-pass verification) are run arguments, not fields, so
   cache entries are shared across them.
   (test_properties.ml holds the qcheck property backing this: equal
   fingerprints imply identical optimized IR on a fuzz corpus.) *)
let fingerprint (t : t) =
  Printf.sprintf "%s/tg%s/%s/la%d/pk%s/ur%s/rv%b" (mode_to_string t.mode)
    t.target.Target.name t.model.Model.name t.lookahead_depth
    (packing_to_string t.packing) (unroll_to_string t.unroll) t.revec
