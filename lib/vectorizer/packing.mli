(** Global pack selection: candidate enumeration over the SLP graph
    plus a pure-OCaml beam-search/branch-and-bound subset solver
    (goSLP-style; see docs/PACKING.md).

    The greedy driver commits profitable trees root-first as it finds
    them; [Config.Global] instead enumerates the candidate space
    (store windows x widths x operand-reorder strategies), solves for
    low-modeled-cost conflict-free subsets, replays the best plans and
    keeps whichever compiled result — greedy incumbent included —
    {!static_cost} ranks cheapest. *)

open Snslp_ir

type candidate = {
  cid : int;  (** enumeration order = greedy preference order *)
  bid : int;  (** owning block id *)
  seed_iids : int list;  (** store iids, lane order *)
  width : int;
  reorder : Graph.reorder;
  est_cost : float;  (** [Cost.of_graph] total of the trial graph *)
  claims : int list;  (** sorted iids the tree would claim *)
}

val est_profitable : candidate -> bool
(** Whether the trial graph's modeled cost is below 0, the paper's
    vectorization threshold (same test as the greedy driver's). *)

val enumerate :
  ?stats:Stats.t ->
  ?on_graph:(Graph.t -> unit) ->
  node_budget:int ->
  Config.t ->
  Defs.func ->
  candidate list
(** Enumerate pack candidates for every store run of every block: each
    power-of-two width, each contiguous window offset (aligned chunks
    and shifted windows alike), chain and — at >= 4 lanes — exhaustive
    operand reordering.  Trial graphs are built on a private clone of
    the function (massaging never touches the caller's IR); ids are
    preserved, so [seed_iids] resolve in any clone.  Every trial graph
    is passed to [?on_graph] (invariant cross-checking); [?stats]
    accrues [pack_candidates] and phase timings.  [node_budget] caps
    total trial-graph nodes built (<= 0 = unlimited); on exhaustion
    enumeration stops early. *)

val solve : ?stats:Stats.t -> beam:int -> candidate list -> candidate list list
(** [solve ~beam cands] — beam search over subsets of [cands] (must be
    in cid order, pre-filtered to profitable), with claim-set
    disjointness as the compatibility rule and an admissible
    branch-and-bound cut (cost so far + all remaining profit, ignoring
    conflicts, vs the incumbent).  Returns up to three distinct plans
    strictly better than the empty plan, best modeled cost first; [[]]
    when [beam < 2].  Accrues [pack_expansions] / [pack_pruned] on
    [?stats]. *)

val static_cost : Config.t -> Defs.func -> float
(** Machine-model cost of one execution of the function's live
    instructions (transitively reachable from stores and branch
    conditions), issue-width scaled — proportional to simulated cycles
    per iteration for straight-line functions.  Priced with
    {!Snslp_costmodel.Model.x86}, the simulator's model, independent of the
    compile-time model. *)
