(* Scalar semantics of the IR: int64 wrap-around, IEEE doubles, and
   float32 rounding after every [F32] operation.  The constant folder,
   the validator's normal forms, trip counting and the tree
   interpreter all evaluate through these, so a folded, summarised or
   interpreted value cannot drift from another. *)

let round_f32 (f : float) = Int32.float_of_bits (Int32.bits_of_float f)

let round (k : Ty.scalar) (f : float) = if Ty.scalar_equal k Ty.F32 then round_f32 f else f

let int_binop (b : Defs.binop) (x : int64) (y : int64) : int64 option =
  match b with
  | Defs.Add -> Some (Int64.add x y)
  | Defs.Sub -> Some (Int64.sub x y)
  | Defs.Mul -> Some (Int64.mul x y)
  | Defs.Div -> None (* integer division is not in the IR *)

let float_binop (k : Ty.scalar) (b : Defs.binop) (x : float) (y : float) : float =
  round k
    (match b with
    | Defs.Add -> x +. y
    | Defs.Sub -> x -. y
    | Defs.Mul -> x *. y
    | Defs.Div -> x /. y)

let cmp_int (c : Defs.cmp) (x : int64) (y : int64) : bool =
  let d = Int64.compare x y in
  match c with
  | Defs.Eq -> d = 0
  | Defs.Ne -> d <> 0
  | Defs.Lt -> d < 0
  | Defs.Le -> d <= 0
  | Defs.Gt -> d > 0
  | Defs.Ge -> d >= 0

let cmp_float (c : Defs.cmp) (x : float) (y : float) : bool =
  match c with
  | Defs.Eq -> x = y
  | Defs.Ne -> x <> y
  | Defs.Lt -> x < y
  | Defs.Le -> x <= y
  | Defs.Gt -> x > y
  | Defs.Ge -> x >= y
