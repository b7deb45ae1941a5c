(* IR types.

   The type system is deliberately small: the scalar types SLP cares
   about (32/64-bit integers and floats), fixed-width vectors of those
   scalars, and typed pointers used by [Gep]/[Load]/[Store].  *)

type scalar = I32 | I64 | F32 | F64

type t =
  | Scalar of scalar
  | Vector of { lanes : int; elem : scalar }
  | Ptr of scalar

let i32 = Scalar I32
let i64 = Scalar I64
let f32 = Scalar F32
let f64 = Scalar F64

let vector ~lanes elem =
  if lanes < 2 then invalid_arg "Ty.vector: lanes must be >= 2";
  Vector { lanes; elem }

let ptr elem = Ptr elem

let scalar_equal (a : scalar) (b : scalar) = a = b

let equal a b =
  match (a, b) with
  | Scalar a, Scalar b -> scalar_equal a b
  | Vector a, Vector b -> a.lanes = b.lanes && scalar_equal a.elem b.elem
  | Ptr a, Ptr b -> scalar_equal a b
  | (Scalar _ | Vector _ | Ptr _), _ -> false

let scalar_is_int = function I32 | I64 -> true | F32 | F64 -> false
let scalar_is_float s = not (scalar_is_int s)

let scalar_bits = function I32 | F32 -> 32 | I64 | F64 -> 64

let bits = function
  | Scalar s | Ptr s -> scalar_bits s
  | Vector { lanes; elem } -> lanes * scalar_bits elem

let is_int = function Scalar s -> scalar_is_int s | Vector _ | Ptr _ -> false
let is_float = function Scalar s -> scalar_is_float s | Vector _ | Ptr _ -> false

let is_vector = function Vector _ -> true | Scalar _ | Ptr _ -> false
let is_ptr = function Ptr _ -> true | Scalar _ | Vector _ -> false

(* The element type of a vector, or the scalar itself: the type each
   lane carries. *)
let elem = function
  | Scalar s | Ptr s | Vector { elem = s; _ } -> s

let lanes = function Vector { lanes; _ } -> lanes | Scalar _ | Ptr _ -> 1

let scalar_to_string = function
  | I32 -> "i32"
  | I64 -> "i64"
  | F32 -> "f32"
  | F64 -> "f64"

let bprint buf = function
  | Scalar s -> Buffer.add_string buf (scalar_to_string s)
  | Vector { lanes; elem } ->
      Buffer.add_char buf '<';
      Buffer.add_string buf (string_of_int lanes);
      Buffer.add_string buf " x ";
      Buffer.add_string buf (scalar_to_string elem);
      Buffer.add_char buf '>'
  | Ptr s ->
      Buffer.add_string buf (scalar_to_string s);
      Buffer.add_char buf '*'

let to_string = function
  | Scalar s -> scalar_to_string s
  | (Vector _ | Ptr _) as t ->
      let buf = Buffer.create 16 in
      bprint buf t;
      Buffer.contents buf

let pp ppf t = Fmt.string ppf (to_string t)
