(* Constant folding over scalar arithmetic and comparisons.

   Folding evaluates with the interpreter's scalar semantics
   ({!Snslp_ir.Arith}), so a folded program is observationally
   identical. *)

open Snslp_ir

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
            (Arith.int_binop b x y)
      | Some (Lit.Float x), Some (Lit.Float y) ->
          let r = Arith.float_binop (Ty.elem i.Defs.ty) b x y in
          Some (Value.const_of_lit i.Defs.ty (Lit.float r))
      | _ -> None)
  | Defs.Icmp c -> (
      match (const_lit i.Defs.ops.(0), const_lit i.Defs.ops.(1)) with
      | Some (Lit.Int x), Some (Lit.Int y) ->
          Some (Value.const_int ~ty:i.Defs.ty (if Arith.cmp_int c x y then 1 else 0))
      | _ -> None)
  | Defs.Fcmp c -> (
      match (const_lit i.Defs.ops.(0), const_lit i.Defs.ops.(1)) with
      | Some (Lit.Float x), Some (Lit.Float y) ->
          Some (Value.const_int ~ty:i.Defs.ty (if Arith.cmp_float c x y then 1 else 0))
      | _ -> None)
  | Defs.Select -> (
      match const_lit i.Defs.ops.(0) with
      | Some (Lit.Int c) -> Some (if Int64.compare c 0L <> 0 then i.Defs.ops.(1) else i.Defs.ops.(2))
      | _ -> None)
  | _ -> None

(* [run func] folds every foldable instruction; one forward sweep
   reaches the fixpoint because a folded instruction's users read the
   constant before the sweep examines them.  Returns the number of folded instructions. *)
let run (func : Defs.func) : int =
  Rewrite.run func (fun _block i -> fold_instr i)
