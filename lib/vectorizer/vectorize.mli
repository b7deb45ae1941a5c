(** The SLP vectorization pass (paper Figure 1, outer loop): seed
    collection with narrower-width retry, graph construction, cost
    decision, code generation, reduction seeding, statistics. *)

open Snslp_ir

type tree_report = {
  seed : string; (** printable description of the seed group *)
  cost : Cost.breakdown;
  vectorized : bool;
  graph_dump : string Lazy.t;
      (** human-readable node listing ({!Graph.pp}), rendered when
          first forced; until then the report keeps the graph's nodes,
          and the IR they name, alive *)
}

type report = { config : Config.t; stats : Stats.t; trees : tree_report list }

type scratch
(** Per-domain scratch state: the look-ahead memo a worker domain
    lends to every graph build it performs.  Ownership rule: a scratch
    never crosses domains, and its memo is cleared on entry to each
    function and after every IR rewrite — so a lent cache only widens
    reuse between rewrites and the output stays bit-identical with or
    without one. *)

val scratch_create : unit -> scratch

val run :
  ?scratch:scratch -> ?on_graph:(Graph.t -> unit) -> Config.t -> Defs.func -> report
(** Vectorizes in place; the function is verified afterwards.
    [scratch] must belong to the calling domain.  [on_graph] observes
    every successfully built SLP graph before the cost decision
    (invariant checking hooks); it must not rewrite the IR. *)
