(** Horizontal reduction vectorization (the paper evaluation's
    [-slp-vectorize-hor]): long single-lane chains whose leaves load
    consecutive memory become vector accumulations plus a horizontal
    sum.  Under SN-SLP the chain may mix the operator with its
    inverse; vanilla SLP and LSLP reduce pure direct-operator chains
    only. *)

open Snslp_ir

type result = { vector_loads : int; width : int }

val attempt :
  scope:Verifier.scope -> Config.t -> Defs.func -> Defs.block -> Defs.instr -> result option
(** Try to reduce the chain rooted at the value stored by the given
    store instruction.  The grouped loads move to the root, so no
    store between a grouped load and the root may overlap it.  What the
    rewrite touched is verified ([scope] is the function's). *)

val run : Config.t -> Defs.func -> int
(** Apply to every block; returns the number of reductions rewritten. *)
