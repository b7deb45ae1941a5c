(** Dominator computation over the block CFG (iterative data-flow
    formulation). *)

type t

val predecessors : Defs.func -> (int, Defs.block list) Hashtbl.t
(** CFG predecessors per block id; every block of the function has an
    entry (empty for the entry block and unreachable blocks). *)

val compute : Defs.func -> t

val dominates : t -> Defs.block -> Defs.block -> bool
(** [dominates t a b]: every path from entry to [b] passes through
    [a].  Reflexive. *)
