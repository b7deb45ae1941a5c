(** Accumulated Path Operations (paper §IV-C1): the effective unary
    operation a position contributes — identity or inverse, i.e. sign
    reversal under addition, reciprocal under multiplication —
    computed as the parity of inverse-operator right edges on the path
    from the root. *)

open Snslp_ir

type t = Plus | Minus

val flip : t -> t
val equal : t -> t -> bool

val to_string : Family.t -> t -> string
(** ["+"]/["-"] for the additive family, ["*"]/["/"] for the
    multiplicative one. *)

val step : t -> Defs.binop -> operand_index:int -> t
(** APO propagation along one tree edge: flips on the right operand of
    an inverse operator. *)

val realising_op : Family.t -> t -> Defs.binop
(** The binop that appends a term with this APO to an accumulator
    chain. *)
