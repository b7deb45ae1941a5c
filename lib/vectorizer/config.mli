(** Vectorizer configuration.

    The three modes correspond to the paper's evaluated
    configurations: vanilla bottom-up SLP, LSLP (Multi-Nodes +
    look-ahead reordering) and SN-SLP (the Super-Node). *)

open Snslp_costmodel

type mode = Vanilla | Lslp | Snslp

val mode_to_string : mode -> string
val mode_of_string : string -> mode option

type packing = Greedy | Global of { beam : int; node_budget : int }
(** Statement-packing strategy.  [Greedy] is the paper's root-first
    builder (the bit-identical legacy path).  [Global] adds a
    goSLP-style global pack selection: enumerate pack candidates,
    search subsets with beam search + a branch-and-bound admissible
    bound, replay the best plans, and keep whichever result
    (greedy incumbent included) the machine-model static cost ranks
    cheapest — greedy on ties.  [beam <= 1] reproduces [Greedy]
    bit-identically; [node_budget] caps SLP-graph nodes built during
    enumeration. *)

val default_beam : int
val default_node_budget : int

type unroll = No_unroll | Unroll_by of int | Unroll_auto
(** Loop-unroll policy run ahead of vectorization (declared here,
    executed by the pipeline's unroll pass).  [Unroll_auto] — the
    default, a no-op on loop-free functions — fully unrolls counted
    loops with known trip counts under the size budget and partially
    unrolls the rest; [Unroll_by n] forces factor [n].
    Output-affecting, so part of {!fingerprint}. *)

val unroll_to_string : unroll -> string

val unroll_of_string : string -> unroll option
(** ["none"]/["off"]/["0"]/["1"], ["auto"], or a factor [n >= 2]. *)

val packing_to_string : packing -> string

val packing_of_string : string -> packing option
(** Accepts ["greedy"], ["global"], ["global:BEAM"] and
    ["global:BEAM:BUDGET"]. *)

type t = {
  mode : mode;
  target : Target.t;
  model : Model.t;
  lookahead_depth : int; (** recursion depth of the look-ahead score *)
  unroll : unroll;
      (** loop-unroll policy run ahead of vectorization;
          output-affecting, so part of {!fingerprint} *)
  packing : packing;
      (** statement-packing strategy; output-affecting, so part of
          {!fingerprint} *)
  revec : bool;
      (** run the Revec-style re-widening pass ({!Snslp_passes.Revec})
          after the vectorizer, re-packing adjacent same-shape vector
          bundles into wider registers when the target has spare
          lanes; output-affecting, so part of {!fingerprint}.
          Default off. *)
}

val default : t
(** SN-SLP on the SSE target with the paper's didactic cost model. *)

val vanilla : t
val lslp : t
val snslp : t
val with_mode : mode -> t -> t

val fingerprint : t -> string
(** Output-relevant configuration fingerprint for content-addressed
    compile caching: equal fingerprints guarantee bit-identical
    optimized IR for equal inputs.  Covers every field — mode, target
    (the [/tg] component, so the compile cache never shares entries
    across targets), model, look-ahead depth, packing, unroll and
    revec.  The trunk cap ({!Chain.max_trunk}), the profitability
    threshold and the reduction pass are constants, so they need no
    component.  The driver's fan-out and per-pass verification,
    which never change the emitted IR, are arguments of
    {!Snslp_passes.Pipeline.run} and the driver instead. *)
