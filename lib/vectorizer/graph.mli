(** SLP graph construction (paper Figure 1 step 3 and Listing 1).

    Starting from a seed group of adjacent stores, construction
    follows use-def chains towards definitions, forming one node per
    operand group.  In [Lslp]/[Snslp] modes, binop groups are first
    offered to {!Supernode.massage}, which may rewrite the IR to
    expose isomorphism before the group is classified. *)

open Snslp_ir
open Snslp_analysis

type kind =
  | K_vec (** isomorphic group: binops, consecutive loads, seed stores *)
  | K_alt of Defs.binop array (** same family, mixed opcodes, per lane *)
  | K_perm of int array
      (** lane permutation of an already-vectorized node (single
          child): one shuffle reuses its vector *)
  | K_gather
  | K_splat

type node = {
  nid : int;
  scalars : Defs.value array;
  kind : kind;
  mutable children : node array; (** by operand index; empty for leaves *)
  mutable vec : Defs.value option; (** filled in by codegen *)
  mutable at_first : bool;
      (** memory bundles: schedule at the first member's position
          instead of the last *)
}

type reorder = R_chain | R_exhaustive
(** Operand-reorder strategy for commutative groups: the legacy
    greedy left-to-right chain, or the look-ahead-scored argmax over
    all per-lane swap assignments (lane 0 included).  Ties keep the
    chain's result, so [R_exhaustive] departs only when its total
    score is strictly higher. *)

type t = {
  config : Config.t;
  func : Defs.func;
  block : Defs.block;
  reorder : reorder;
  stats : Stats.t option;  (** phase-timing sink, when the caller profiles *)
  deps : Deps.t;  (** the caller's block-wide analysis, refreshed in place *)
  mutable nodes : node list;
  mutable root : node option;
  mutable next_id : int;
  claimed : (int, node) Hashtbl.t; (** iid -> vectorized node owning it *)
  by_key : (string, node) Hashtbl.t;
  no_remassage : (int, unit) Hashtbl.t;
  mutable supernode_sizes : int list; (** pending stats *)
  lookahead_cache : Lookahead.cache;
      (** the caller's lent look-ahead memo, or one per graph build;
          cleared whenever a massage rewrites the IR *)
}

val nodes : t -> node list
(** Creation order, root first. *)

val root : t -> node
val lanes : node -> int

val is_vectorizable_kind : kind -> bool
(** Kinds whose scalars are replaced by a vector instruction (claimed,
    erased, extract-priced). *)

val build :
  ?stats:Stats.t ->
  deps:Deps.t ->
  ?cache:Lookahead.cache ->
  ?reorder:reorder ->
  Config.t ->
  Defs.func ->
  Defs.block ->
  Defs.instr list ->
  t option
(** [build config func block seed] builds the graph rooted at the
    store seed; [None] when the seed cannot even be bundled.  May
    rewrite the IR (Super-Node massaging).  [~deps] is the caller's
    block-wide dependence analysis, refreshed in place after a massage
    (the caller must refresh it between seeds if the IR changed);
    [?cache] lends the caller's look-ahead memo (domain-local scratch
    in the parallel driver; the caller clears it on IR rewrites
    outside the build and between functions), else the graph
    allocates its own; [?reorder] selects the commutative operand-reorder
    strategy (default [R_chain], the legacy greedy chain); [?stats]
    charges phase timings ("deps", "massage", "reorder") to the given
    sink. *)

val pp_node : node Fmt.t
val pp : t Fmt.t
