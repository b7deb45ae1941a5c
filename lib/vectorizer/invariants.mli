(** Structural invariants of a built SLP graph, re-derived
    independently of the builder: bundle schedulability under a fresh
    dependence analysis, of each vector group and of all of them
    together ({!Snslp_analysis.Deps.schedulable}: the builder admits
    every group against the tree so far, and this checks that
    guarantee without its accumulator), lane isomorphism, consecutive
    memory bundles, alternating-mask/APO agreement, child operand
    consistency. *)

val check : Graph.t -> string list
(** Violation descriptions (with pretty-printed lane instructions);
    empty when the invariants hold. *)
