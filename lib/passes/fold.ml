(* Constant folding over scalar arithmetic and comparisons.

   Folding evaluates with the same semantics as the interpreter
   (int64 wrap-around, IEEE doubles/floats with float32 rounding for
   [F32]), so a folded program is observationally identical. *)

open Snslp_ir

let round_f32 (f : float) = Int32.float_of_bits (Int32.bits_of_float f)

let eval_int_binop (b : Defs.binop) (x : int64) (y : int64) : int64 option =
  match b with
  | Defs.Add -> Some (Int64.add x y)
  | Defs.Sub -> Some (Int64.sub x y)
  | Defs.Mul -> Some (Int64.mul x y)
  | Defs.Div -> None (* integer division is not in the IR *)

let eval_float_binop (b : Defs.binop) (x : float) (y : float) : float =
  match b with
  | Defs.Add -> x +. y
  | Defs.Sub -> x -. y
  | Defs.Mul -> x *. y
  | Defs.Div -> x /. y

let eval_cmp_int (c : Defs.cmp) (x : int64) (y : int64) : bool =
  let d = Int64.compare x y in
  match c with
  | Defs.Eq -> d = 0
  | Defs.Ne -> d <> 0
  | Defs.Lt -> d < 0
  | Defs.Le -> d <= 0
  | Defs.Gt -> d > 0
  | Defs.Ge -> d >= 0

let eval_cmp_float (c : Defs.cmp) (x : float) (y : float) : bool =
  match c with
  | Defs.Eq -> x = y
  | Defs.Ne -> x <> y
  | Defs.Lt -> x < y
  | Defs.Le -> x <= y
  | Defs.Gt -> x > y
  | Defs.Ge -> x >= y

let const_lit (v : Defs.value) : Lit.t option =
  match v with Defs.Const { lit; _ } -> Some lit | _ -> None

(* Try to fold one instruction into a constant. *)
let fold_instr (i : Defs.instr) : Defs.value option =
  match i.Defs.op with
  | Defs.Binop b -> (
      match (const_lit i.Defs.ops.(0), const_lit i.Defs.ops.(1)) with
      | Some (Lit.Int x), Some (Lit.Int y) ->
          Option.map
            (fun r -> Value.const_of_lit i.Defs.ty (Lit.int64 r))
            (eval_int_binop b x y)
      | Some (Lit.Float x), Some (Lit.Float y) ->
          let r = eval_float_binop b x y in
          let r = if Ty.elem i.Defs.ty = Ty.F32 then round_f32 r else r in
          Some (Value.const_of_lit i.Defs.ty (Lit.float r))
      | _ -> None)
  | Defs.Icmp c -> (
      match (const_lit i.Defs.ops.(0), const_lit i.Defs.ops.(1)) with
      | Some (Lit.Int x), Some (Lit.Int y) ->
          Some (Value.const_int ~ty:i.Defs.ty (if eval_cmp_int c x y then 1 else 0))
      | _ -> None)
  | Defs.Fcmp c -> (
      match (const_lit i.Defs.ops.(0), const_lit i.Defs.ops.(1)) with
      | Some (Lit.Float x), Some (Lit.Float y) ->
          Some (Value.const_int ~ty:i.Defs.ty (if eval_cmp_float c x y then 1 else 0))
      | _ -> None)
  | Defs.Select -> (
      match const_lit i.Defs.ops.(0) with
      | Some (Lit.Int c) -> Some (if Int64.compare c 0L <> 0 then i.Defs.ops.(1) else i.Defs.ops.(2))
      | _ -> None)
  | _ -> None

(* [run func] folds every foldable instruction; one forward sweep
   reaches the fixpoint because operands are rewritten before their
   users are examined.  Returns the number of folded instructions. *)
let run (func : Defs.func) : int =
  Rewrite.run func (fun _block i -> fold_instr i)
