(** Scalar semantics of the IR, defined once: int64 wrap-around, IEEE
    doubles, and float32 rounding after every [F32] operation. *)

val round_f32 : float -> float
(** Round to float32 precision. *)

val round : Ty.scalar -> float -> float
(** {!round_f32} for [F32], the identity for every other kind. *)

val int_binop : Defs.binop -> int64 -> int64 -> int64 option
(** Wrapping int64 arithmetic; [None] for [Div], which the IR does not
    have on integers. *)

val float_binop : Ty.scalar -> Defs.binop -> float -> float -> float
(** IEEE arithmetic, rounded with {!round} for the result kind. *)

val cmp_int : Defs.cmp -> int64 -> int64 -> bool
val cmp_float : Defs.cmp -> float -> float -> bool
(** IEEE comparisons: every comparison but [Ne] is false on NaN. *)
