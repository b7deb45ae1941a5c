(** Cost estimation of an SLP graph (paper Figure 1 step 4): the sum
    over nodes of vector-versus-scalar savings, plus packing costs for
    gather/splat nodes and extracts for externally-used values. *)

type breakdown = {
  per_node : (int * float) list; (** nid, contribution *)
  extracts : float;
  total : float;
}

val node_cost : Config.t -> Graph.node -> float
val extract_cost : Config.t -> Graph.t -> float
val of_graph : Config.t -> Graph.t -> breakdown

val profitable : breakdown -> bool
(** [total < 0], the paper's threshold. *)

val pp : breakdown Fmt.t
