(* Accumulated Path Operations (paper §IV-C1).

   The APO of a position in an expression tree over an operator family
   is the effective unary operation applied to the value at that
   position: [Plus] for the identity, [Minus] for the inverse — sign
   reversal under addition, reciprocal under multiplication.  It is
   computed by counting
   the right-hand-side edges of inverse operations on the path from
   the root: an even count is [Plus], odd is [Minus]. *)

open Snslp_ir

type t = Plus | Minus

let flip = function Plus -> Minus | Minus -> Plus

let equal (a : t) (b : t) = a = b

let to_string fam =
  match fam with
  | Family.Add_sub -> ( function Plus -> "+" | Minus -> "-")
  | Family.Mul_div -> ( function Plus -> "*" | Minus -> "/")

(* APO propagation along one tree edge: going into the left operand of
   any family operator keeps the APO; going into the right operand of
   an inverse operator flips it. *)
let step (parent_apo : t) (op : Defs.binop) ~(operand_index : int) : t =
  if operand_index = 1 && Defs.is_inverse_op op then flip parent_apo else parent_apo

(* The binop realising a term with APO [a] when appended to an
   accumulator chain of family [fam]. *)
let realising_op (fam : Family.t) = function
  | Plus -> Family.direct_op fam
  | Minus -> Family.inverse_op fam
