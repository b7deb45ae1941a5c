(* Algebraic simplification: identity and annihilator rules that
   canonicalise the scalar code before SLP runs, mirroring the
   instcombine-style cleanups an -O3 pipeline would have applied.

   Only rules that are exact in IEEE arithmetic for the inputs the
   kernels use are applied to floats (x*1, x/1); x+0/x-0 are applied
   to floats as well, which matches the -ffast-math setting of the
   paper's evaluation. *)

open Snslp_ir

let is_const_int (v : Defs.value) (k : int64) =
  match v with Defs.Const { lit = Lit.Int x; _ } -> Int64.equal x k | _ -> false

let is_const_float (v : Defs.value) (k : float) =
  match v with Defs.Const { lit = Lit.Float x; _ } -> x = k | _ -> false

let is_zero (v : Defs.value) = is_const_int v 0L || is_const_float v 0.0
let is_one_float (v : Defs.value) = is_const_float v 1.0
let is_one_int (v : Defs.value) = is_const_int v 1L

(* The simplified replacement of an instruction, if any. *)
let simplify_instr (i : Defs.instr) : Defs.value option =
  match i.Defs.op with
  | Defs.Binop b -> (
      let x = i.Defs.ops.(0) and y = i.Defs.ops.(1) in
      let int = Ty.is_int i.Defs.ty in
      match b with
      | Defs.Add ->
          if is_zero y then Some x else if is_zero x then Some y else None
      | Defs.Sub -> if is_zero y then Some x else None
      | Defs.Mul ->
          if int && is_one_int y then Some x
          else if int && is_one_int x then Some y
          else if (not int) && is_one_float y then Some x
          else if (not int) && is_one_float x then Some y
          else None
      | Defs.Div -> if (not int) && is_one_float y then Some x else None)
  | _ -> None

let run (func : Defs.func) : int =
  Rewrite.run func (fun _block i -> simplify_instr i)
