(* Operations over IR values. *)

include struct
  open Defs

  type t = value

  let ty = function
    | Const { ty; _ } -> ty
    | Undef ty -> ty
    | Arg a -> a.arg_ty
    | Instr i -> i.ty

  (* Value identity within one function, the rule every value-keyed
     table follows (CSE, the SLP graph memo, revec's pair memo):
     instructions by id, arguments by position, undefs by type,
     constants by type and bits — so 0.0 and -0.0 never merge. *)
  let equal a b =
    match (a, b) with
    | Instr a, Instr b -> a.iid = b.iid
    | Const a, Const b -> Ty.equal a.ty b.ty && Lit.equal a.lit b.lit
    | Undef a, Undef b -> Ty.equal a b
    | Arg a, Arg b -> a.arg_pos = b.arg_pos
    | (Instr _ | Const _ | Undef _ | Arg _), _ -> false

  (* Equal values hash alike: an instruction by its id, an argument
     by its position (a negative int, apart from every id), and a
     constant or undef structurally — the polymorphic hash folds -0.0
     into 0.0 and every NaN into one, which only coarsens it. *)
  let hash = function
    | Instr i -> Hashtbl.hash i.iid
    | Arg a -> Hashtbl.hash (-1 - a.arg_pos)
    | (Const _ | Undef _) as v -> Hashtbl.hash v

  let is_instr = function Instr _ -> true | Const _ | Undef _ | Arg _ -> false
  let is_const = function Const _ -> true | Instr _ | Undef _ | Arg _ -> false

  let as_instr = function Instr i -> Some i | Const _ | Undef _ | Arg _ -> None

  let const_int ?(ty = Ty.i64) i =
    if not (Ty.is_int ty) then invalid_arg "Value.const_int: not an int type";
    Const { ty; lit = Lit.int i }

  let const_float ?(ty = Ty.f64) f =
    if not (Ty.is_float ty) then invalid_arg "Value.const_float: not a float type";
    Const { ty; lit = Lit.float f }

  let const_of_lit ty lit =
    if not (Lit.matches_ty lit ty) then invalid_arg "Value.const_of_lit: type mismatch";
    Const { ty; lit }

  let as_const_int = function
    | Const { lit = Lit.Int i; _ } -> Some (Int64.to_int i)
    | Const _ | Undef _ | Arg _ | Instr _ -> None

  (* [equal]'s rule as text, for tables keyed by strings (the lint's
     available expressions); NaN constants all print alike. *)
  let key = function
    | Instr i -> Printf.sprintf "i%d" i.iid
    | Const { ty; lit } -> Printf.sprintf "c%s:%s" (Ty.to_string ty) (Lit.to_string lit)
    | Arg a -> Printf.sprintf "a%d" a.arg_pos
    | Undef ty -> Printf.sprintf "u%s" (Ty.to_string ty)

  let name = function
    | Const { lit; _ } -> Lit.to_human lit
    | Undef _ -> "undef"
    | Arg a -> "%" ^ a.arg_name
    | Instr i -> "%" ^ i.iname

  (* [name] into a buffer, without the intermediate string for the
     common case of a named operand. *)
  let bprint_name buf = function
    | Arg { arg_name = n; _ } | Instr { iname = n; _ } ->
        Buffer.add_char buf '%';
        Buffer.add_string buf n
    | (Const _ | Undef _) as v -> Buffer.add_string buf (name v)

  let pp ppf v = Fmt.string ppf (name v)
end
