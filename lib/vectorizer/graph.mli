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
      (** fixed at creation: a vector group that the tree so far
          refuses ({!Snslp_analysis.Deps.admit}) is a [K_gather] *)
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

module Group : Hashtbl.S with type key = Defs.value array
(** Tables keyed by a group of scalars, lane by lane under
    {!Snslp_ir.Value.equal}. *)

type t = {
  config : Config.t;
  func : Defs.func;
  block : Defs.block;
  reorder : reorder;
  stats : Stats.t option;  (** phase-timing sink, when the caller profiles *)
  deps : Deps.t;  (** the caller's block-wide analysis *)
  admitted : Deps.fusion;
      (** the vector groups accepted so far, the seed's first *)
  mutable nodes : node list;
  mutable root : node option;
  mutable next_id : int;  (** node ids run from 0 to [next_id - 1] *)
  claimed : node Int_table.t; (** iid -> vectorized node owning it *)
  by_group : node Group.t; (** scalars -> the node built for them *)
  no_remassage : unit Int_table.t;
  mutable supernode_sizes : int list; (** pending stats *)
  lookahead_cache : Lookahead.cache;
      (** the caller's look-ahead memo; cleared whenever a massage
          rewrites the IR *)
}

val nodes : t -> node list
(** Creation order, root first. *)

val root : t -> node
val lanes : node -> int

val is_vectorizable_kind : kind -> bool
(** Kinds whose scalars are replaced by a vector instruction (claimed,
    erased, extract-priced). *)

val vector_groups : t -> Defs.value array list
(** The scalars of every vectorizable node, one group per node, in
    creation order (the order the builder admitted them). *)

val build :
  ?stats:Stats.t ->
  deps:Deps.t ->
  cache:Lookahead.cache ->
  ?reorder:reorder ->
  Config.t ->
  Defs.func ->
  Defs.block ->
  Defs.instr list ->
  t option
(** [build config func block seed] builds the graph rooted at the
    store seed; [None] when the seed cannot even be bundled.  Each
    vector group is admitted against the tree so far when the builder
    meets it ({!Snslp_analysis.Deps.admit}; a binop group before its
    Super-Node massage, restated as the massaged roots), and a refused
    one is a [K_gather], so the tree is always schedulable.  May
    rewrite the IR (Super-Node massaging).  [~deps] is the caller's
    block-wide dependence analysis, which may serve any number of
    seeds: it re-reads the block by itself after a rewrite, so the
    caller has nothing to do between seeds; [~cache] is the caller's
    look-ahead memo (the vectorizer driver keeps one per run; the
    caller clears it on IR rewrites outside the build); [?reorder]
    selects the commutative operand-reorder strategy (default
    [R_chain], the legacy greedy chain); [?stats] charges phase
    timings ("massage", "reorder") to the given sink. *)

val pp_node : node Fmt.t

val pp_nodes : node list Fmt.t
(** One line per node: kind, scalar names, children. *)

val pp : t Fmt.t
(** [pp_nodes] of {!nodes}. *)
