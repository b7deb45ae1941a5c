(** Constant literals carried by [Const] values. *)

type t = Int of int64 | Float of float

val int : int -> t
val int64 : int64 -> t
val float : float -> t

val equal : t -> t -> bool
(** Bitwise for floats, so [-0.0 <> 0.0] and NaNs compare by payload —
    the right notion of identity for IR constants. *)

val is_int : t -> bool

val matches_ty : t -> Ty.t -> bool
(** Whether the literal can inhabit the (scalar) type. *)

val to_string : t -> string
(** Lossless rendering ([%h] for floats); used in structural keys. *)

val float_to_string : float -> string
(** The shortest [%.{p}g] rendering (p = 6..17) that reads back to
    the same bits: [%g] whenever [%g] is exact, and never lossy. *)

val to_human : t -> string
(** Readable and exact rendering, used by the printer: integers in
    decimal, floats by {!float_to_string}. *)

val pp : t Fmt.t
