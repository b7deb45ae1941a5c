(* Runtime values of the interpreter. *)

open Snslp_ir

type t =
  | R_int of int64
  | R_float of float
  | R_vec of t array
  | R_ptr of { base : int (* argument position *); offset : int (* elements *) }
  | R_undef

let rec equal a b =
  match (a, b) with
  | R_int x, R_int y -> Int64.equal x y
  | R_float x, R_float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | R_vec x, R_vec y -> Array.length x = Array.length y && Array.for_all2 equal x y
  | R_ptr x, R_ptr y -> x.base = y.base && x.offset = y.offset
  | R_undef, R_undef -> true
  | (R_int _ | R_float _ | R_vec _ | R_ptr _ | R_undef), _ -> false

let as_int = function
  | R_int i -> i
  | _ -> invalid_arg "Rvalue.as_int: not an integer"

let as_float = function
  | R_float f -> f
  | _ -> invalid_arg "Rvalue.as_float: not a float"

let as_vec = function
  | R_vec v -> v
  | _ -> invalid_arg "Rvalue.as_vec: not a vector"

let as_ptr = function
  | R_ptr p -> (p.base, p.offset)
  | _ -> invalid_arg "Rvalue.as_ptr: not a pointer"

let of_lit (ty : Ty.t) (lit : Lit.t) : t =
  match lit with Lit.Int i -> R_int i | Lit.Float f -> R_float (Arith.round (Ty.elem ty) f)

let rec pp ppf = function
  | R_int i -> Fmt.pf ppf "%Ld" i
  | R_float f -> Fmt.pf ppf "%g" f
  | R_vec v -> Fmt.pf ppf "<%a>" (Fmt.array ~sep:(Fmt.any ", ") pp) v
  | R_ptr { base; offset } -> Fmt.pf ppf "&arg%d[%d]" base offset
  | R_undef -> Fmt.string ppf "undef"
