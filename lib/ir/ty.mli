(** IR types: scalars, fixed-width vectors and typed pointers. *)

type scalar = I32 | I64 | F32 | F64

type t =
  | Scalar of scalar
  | Vector of { lanes : int; elem : scalar }
  | Ptr of scalar

val i32 : t
val i64 : t
val f32 : t
val f64 : t

val vector : lanes:int -> scalar -> t
(** [vector ~lanes elem] is a vector type. Raises [Invalid_argument]
    if [lanes < 2]. *)

val ptr : scalar -> t

val equal : t -> t -> bool
val scalar_equal : scalar -> scalar -> bool

val scalar_is_int : scalar -> bool
val scalar_is_float : scalar -> bool
val scalar_bits : scalar -> int

val bits : t -> int
(** Total width in bits ([Ptr] counts as the width of its element). *)

val is_int : t -> bool
(** [is_int t] holds only for scalar integer types. *)

val is_float : t -> bool
(** [is_float t] holds only for scalar float types. *)

val is_vector : t -> bool
val is_ptr : t -> bool

val elem : t -> scalar
(** Element scalar of a vector/pointer, or the scalar itself. *)

val lanes : t -> int
(** Number of lanes; 1 for scalars and pointers. *)

val bprint : Buffer.t -> t -> unit
(** Appends the rendering ([f64], [<4 x f32>], [i64*]) to the buffer. *)

val to_string : t -> string
val scalar_to_string : scalar -> string
val pp : t Fmt.t
