(* Instruction builder: constructs typed instructions at the end of a
   block, with per-opcode typing rules enforced eagerly so malformed IR
   fails at construction rather than at verification. *)

open Defs

type t = { func : func; mutable at : block }

let require cond msg = if not cond then invalid_arg ("Builder." ^ msg)
let create func ~at = { func; at }
let position (b : t) block = b.at <- block
let block (b : t) = b.at
let func (b : t) = b.func

let insert (b : t) ?name op ty ops =
  let i = Func.fresh_instr b.func ?name op ty ops in
  Block.append b.at i;
  i

let binop (b : t) ?name kind x y =
  let tx = Value.ty x and ty_ = Value.ty y in
  require (Ty.equal tx ty_) "binop: operand types differ";
  require
    (match tx with
    | Ty.Scalar _ | Ty.Vector _ -> true
    | Ty.Ptr _ -> false)
    "binop: pointer operands";
  (match kind with
  | Div ->
      require
        (Ty.scalar_is_float (Ty.elem tx))
        "binop: integer division is not part of the IR"
  | Add | Sub | Mul -> ());
  insert b ?name (Binop kind) tx [| x; y |]

let add b ?name x y = binop b ?name Add x y
let sub b ?name x y = binop b ?name Sub x y
let mul b ?name x y = binop b ?name Mul x y
let div b ?name x y = binop b ?name Div x y

let alt_binop (b : t) ?name kinds x y =
  let tx = Value.ty x in
  require (Ty.equal tx (Value.ty y)) "alt_binop: operand types differ";
  require (Ty.is_vector tx) "alt_binop: operands must be vectors";
  require (Array.length kinds = Ty.lanes tx) "alt_binop: wrong number of lane opcodes";
  insert b ?name (Alt_binop kinds) tx [| x; y |]

let gep (b : t) ?name base index =
  require (Ty.is_ptr (Value.ty base)) "gep: base must be a pointer";
  require (Ty.is_int (Value.ty index)) "gep: index must be an integer";
  insert b ?name Gep (Value.ty base) [| base; index |]

let load (b : t) ?name addr =
  match Value.ty addr with
  | Ty.Ptr s -> insert b ?name Load (Ty.Scalar s) [| addr |]
  | Ty.Scalar _ | Ty.Vector _ -> invalid_arg "Builder.load: address must be a pointer"

let vload (b : t) ?name ~lanes addr =
  match Value.ty addr with
  | Ty.Ptr s -> insert b ?name Load (Ty.vector ~lanes s) [| addr |]
  | Ty.Scalar _ | Ty.Vector _ -> invalid_arg "Builder.vload: address must be a pointer"

let store (b : t) v addr =
  (match Value.ty addr with
  | Ty.Ptr s ->
      require (Ty.scalar_equal (Ty.elem (Value.ty v)) s) "store: element type mismatch"
  | Ty.Scalar _ | Ty.Vector _ -> invalid_arg "Builder.store: address must be a pointer");
  insert b Store Ty.i32 [| v; addr |]

let insertelement (b : t) ?name vec scalar lane =
  let tv = Value.ty vec in
  require (Ty.is_vector tv) "insertelement: not a vector";
  require
    (Ty.scalar_equal (Ty.elem tv) (Ty.elem (Value.ty scalar)) && not (Ty.is_vector (Value.ty scalar)))
    "insertelement: scalar type mismatch";
  require (lane >= 0 && lane < Ty.lanes tv) "insertelement: lane out of range";
  insert b ?name Insert tv [| vec; scalar; Value.const_int lane |]

let extractelement (b : t) ?name vec lane =
  let tv = Value.ty vec in
  require (Ty.is_vector tv) "extractelement: not a vector";
  require (lane >= 0 && lane < Ty.lanes tv) "extractelement: lane out of range";
  insert b ?name Extract (Ty.Scalar (Ty.elem tv)) [| vec; Value.const_int lane |]

let shuffle (b : t) ?name v1 v2 mask =
  let t1 = Value.ty v1 in
  require (Ty.is_vector t1 && Ty.equal t1 (Value.ty v2)) "shuffle: vector types differ";
  let total = 2 * Ty.lanes t1 in
  Array.iter (fun m -> require (m >= 0 && m < total) "shuffle: mask index out of range") mask;
  require (Array.length mask >= 2) "shuffle: mask too short";
  insert b ?name (Shuffle (Array.copy mask))
    (Ty.vector ~lanes:(Array.length mask) (Ty.elem t1))
    [| v1; v2 |]

(* Comparisons produce i32 (scalar operands) or a same-width vector of
   i32 lanes (vector operands). *)
let cmp_result_ty ty =
  match ty with
  | Ty.Vector { lanes; _ } -> Ty.vector ~lanes Ty.I32
  | Ty.Scalar _ | Ty.Ptr _ -> Ty.i32

let icmp (b : t) ?name pred x y =
  require
    (Ty.scalar_is_int (Ty.elem (Value.ty x))
    && (not (Ty.is_ptr (Value.ty x)))
    && Ty.equal (Value.ty x) (Value.ty y))
    "icmp: bad operands";
  insert b ?name (Icmp pred) (cmp_result_ty (Value.ty x)) [| x; y |]

let fcmp (b : t) ?name pred x y =
  require
    (Ty.scalar_is_float (Ty.elem (Value.ty x)) && Ty.equal (Value.ty x) (Value.ty y))
    "fcmp: bad operands";
  insert b ?name (Fcmp pred) (cmp_result_ty (Value.ty x)) [| x; y |]

let select (b : t) ?name cond if_true if_false =
  let tc = Value.ty cond and ta = Value.ty if_true in
  require
    (Ty.scalar_is_int (Ty.elem tc) && not (Ty.is_ptr tc))
    "select: condition must be integers";
  require
    ((not (Ty.is_vector tc)) || Ty.lanes tc = Ty.lanes ta)
    "select: condition lane count mismatch";
  require (Ty.equal ta (Value.ty if_false)) "select: arm types differ";
  insert b ?name Select ta [| cond; if_true; if_false |]

(* [phi b ~preds ops] appends a join point: [ops.(k)] is the incoming
   value when control arrives from [preds.(k)].  Phis must form the
   block's head, so the builder demands every instruction already in
   the block is itself a phi.  The walk stops at the first non-phi, so
   an accepted phi costs the phis before it.  Operands may be
   placeholders patched later with [Instr.set_operand] (a loop
   header's back-edge value is built after the header). *)
let phi (b : t) ?name ~(preds : block array) ops =
  require (Array.length preds > 0) "phi: needs at least one predecessor";
  require (Array.length preds = Array.length ops) "phi: operand/predecessor count mismatch";
  let ty0 = Value.ty ops.(0) in
  Array.iter (fun v -> require (Ty.equal (Value.ty v) ty0) "phi: operand types differ") ops;
  let rec all_phis = function Some (i : instr) -> Instr.is_phi i && all_phis i.inext | None -> true in
  require (all_phis (Block.first b.at)) "phi: must precede every non-phi in its block";
  insert b ?name (Phi (Array.map (fun (blk : block) -> blk.bid) preds)) ty0 ops

let ret (b : t) = Block.set_terminator b.at Ret
let br (b : t) target = Block.set_terminator b.at (Br target)

let cond_br (b : t) cond if_true if_false =
  require (Ty.is_int (Value.ty cond)) "cond_br: condition must be an integer";
  Block.set_terminator b.at (Cond_br (cond, if_true, if_false))
