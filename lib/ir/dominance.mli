(** Dominator computation over the block CFG (iterative data-flow
    formulation). *)

type t

val predecessors : Defs.func -> (int, Defs.block list) Hashtbl.t
(** CFG predecessors per block id; every block of the function has an
    entry (empty for the entry block and unreachable blocks). *)

val absorb : (int, Defs.block list) Hashtbl.t -> Defs.block -> Defs.block -> unit
(** [absorb preds b s] appends [s]'s instructions to [b], gives [b]
    [s]'s terminator, and hands [s]'s outgoing edges to [b]: phi
    payloads in its successors and their entries in [preds] (as
    {!predecessors} built them) name [b] from now on.  [s] is left
    empty, for the caller to drop from the function. *)

val compute : Defs.func -> t

val dominates : t -> Defs.block -> Defs.block -> bool
(** [dominates t a b]: every path from entry to [b] passes through
    [a].  Reflexive. *)
