(** Runtime values of the interpreter. *)

open Snslp_ir

type t =
  | R_int of int64
  | R_float of float
  | R_vec of t array
  | R_ptr of { base : int (** argument position *); offset : int (** elements *) }
  | R_undef

val equal : t -> t -> bool
(** Floats compare bitwise. *)

val as_int : t -> int64
val as_float : t -> float
val as_vec : t -> t array
val as_ptr : t -> int * int

val of_lit : Ty.t -> Lit.t -> t
val pp : t Fmt.t
