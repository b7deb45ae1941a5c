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

val run : ?on_graph:(Graph.t -> unit) -> Config.t -> Defs.func -> report
(** Vectorizes in place; the function is verified afterwards.  Each
    run owns one look-ahead memo, shared by every seed of the function
    and cleared after every IR rewrite.  [on_graph] observes every
    successfully built SLP graph before the cost decision (invariant
    checking hooks); it must not rewrite the IR. *)
