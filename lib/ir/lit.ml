(* Constant literals carried by [Const] values. *)

type t = Int of int64 | Float of float

let int i = Int (Int64.of_int i)
let int64 i = Int i
let float f = Float f

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let equal a b =
  match (a, b) with
  | Int a, Int b -> Int64.equal a b
  | Float a, Float b ->
      (* Distinguish NaN payload-insensitively but keep -0.0 <> 0.0 out
         of the way: bitwise comparison is the right notion for IR
         constants. *)
      same_bits a b
  | (Int _ | Float _), _ -> false

let is_int = function Int _ -> true | Float _ -> false

let matches_ty (t : t) (ty : Ty.t) =
  match (t, ty) with
  | Int _, Ty.Scalar s -> Ty.scalar_is_int s
  | Float _, Ty.Scalar s -> Ty.scalar_is_float s
  | (Int _ | Float _), (Ty.Vector _ | Ty.Ptr _) -> false

let to_string = function
  | Int i -> Int64.to_string i
  | Float f -> Printf.sprintf "%h" f

(* The shortest [%.{p}g], p = 6..17, that reads back to the same bits.
   It equals [%g] whenever [%g] is exact, and 17 significant digits
   identify every double, so the text never merges two constants. *)
let float_to_string f =
  let rec go p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 then s
    else
      match float_of_string_opt s with
      | Some g when same_bits f g -> s
      | Some _ | None -> go (p + 1)
  in
  go 6

let to_human = function
  | Int i -> Int64.to_string i
  | Float f -> float_to_string f

let pp ppf t = Fmt.string ppf (to_human t)
