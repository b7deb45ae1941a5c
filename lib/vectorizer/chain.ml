(* Trunk chain discovery — the per-lane half of Multi/Super-Node
   construction.

   Starting from a root instruction, [discover] collects the maximal
   uninterrupted expression tree of binops from one operator family
   (only the commutative operator for LSLP's Multi-Node; the inverse
   operator too for the Super-Node).  Interior (trunk) instructions
   must be single-use and in the same block; everything hanging off
   the trunk is a leaf, annotated with its APO. *)

open Snslp_ir

type leaf = {
  lvalue : Defs.value;
  lapo : Apo.t;
  lpos : int; (* in-order position, 0 = leftmost/deepest *)
}

type t = {
  root : Defs.instr;
  fam : Family.t;
  trunk : Defs.instr list; (* root included; every trunk instr of the lane *)
  leaves : leaf array; (* in-order; length = List.length trunk + 1 *)
  elem : Ty.scalar;
}

let size (t : t) = List.length t.trunk

(* Whether [v] can be a trunk member under [c]: a single-use binop of
   the right family (restricted to the direct operator for LSLP) with
   the same scalar type, residing in the same block as the root. *)
let trunk_eligible ~(mode : Config.mode) ~(fam : Family.t) ~(elem : Ty.scalar)
    ~(block : Defs.block) ~(func : Defs.func) (v : Defs.value) =
  match v with
  | Defs.Instr i -> (
      match i.Defs.op with
      | Defs.Binop b ->
          Family.of_binop b = fam
          && (match mode with
             | Config.Vanilla -> false
             | Config.Lslp -> b = Family.direct_op fam
             | Config.Snslp -> true)
          && Ty.equal i.Defs.ty (Ty.Scalar elem)
          && (match i.Defs.iblock with Some bl -> Block.equal bl block | None -> false)
          (* the single-use test dominates discovery time: O(uses)
             from the use lists *)
          && List.length (Func.uses_of func (Defs.Instr i)) = 1
      | _ -> false)
  | Defs.Const _ | Defs.Undef _ | Defs.Arg _ -> false

(* [discover config func root] grows the chain from [root].  Returns
   [None] when [root] does not head a chain of at least 2 trunk
   instructions (the minimum legal Multi/Super-Node size) or when the
   family is not allowed on the element type. *)
let discover (config : Config.t) (func : Defs.func) (root : Defs.instr) : t option =
  match (root.Defs.op, root.Defs.iblock) with
  | Defs.Binop b, Some block -> (
      let fam = Family.of_binop b in
      let elem = Ty.elem root.Defs.ty in
      if
        config.Config.mode = Config.Vanilla
        || Ty.is_vector root.Defs.ty
        || not (Family.allowed_on fam elem)
        || (config.Config.mode = Config.Lslp && b <> Family.direct_op fam)
      then None
      else begin
        let trunk = ref [] in
        let leaves = ref [] in
        let budget = ref config.Config.max_chain in
        (* In-order walk: left subtree, then right subtree.  [apo] is
           the accumulated path operation of the subtree's value. *)
        let rec walk (v : Defs.value) (apo : Apo.t) ~(is_root : bool) =
          let eligible =
            is_root
            || (!budget > 0
               && trunk_eligible ~mode:config.Config.mode ~fam ~elem ~block ~func v)
          in
          match v with
          | Defs.Instr i when eligible -> (
              match i.Defs.op with
              | Defs.Binop op ->
                  decr budget;
                  trunk := i :: !trunk;
                  walk i.Defs.ops.(0) (Apo.step apo op ~operand_index:0) ~is_root:false;
                  walk i.Defs.ops.(1) (Apo.step apo op ~operand_index:1) ~is_root:false
              | _ -> assert false)
          | _ -> leaves := (v, apo) :: !leaves
        in
        walk (Defs.Instr root) Apo.Plus ~is_root:true;
        let trunk_list = List.rev !trunk in
        if List.length trunk_list < 2 then None
        else begin
          let leaves_arr =
            List.rev !leaves
            |> List.mapi (fun lpos (lvalue, lapo) -> { lvalue; lapo; lpos })
            |> Array.of_list
          in
          Some { root; fam; trunk = trunk_list; leaves = leaves_arr; elem }
        end
      end)
  | _ -> None

(* A chain is already in canonical left-leaning form when every trunk
   instruction's first operand is the next trunk instruction (except
   the deepest, whose first operand is leaf 0) and every second
   operand is a leaf.  Canonical chains with unchanged leaf order need
   no regeneration. *)
let is_canonical (t : t) =
  let trunk_ids = List.map (fun i -> i.Defs.iid) t.trunk in
  let is_trunk v =
    match v with Defs.Instr i -> List.mem i.Defs.iid trunk_ids | _ -> false
  in
  let rec check (i : Defs.instr) depth =
    (* depth counts trunk instrs below this one *)
    if is_trunk i.Defs.ops.(1) then false
    else
      match i.Defs.ops.(0) with
      | Defs.Instr j when is_trunk (Defs.Instr j) -> check j (depth - 1)
      | _ -> depth = 0
  in
  check t.root (size t - 1)

let pp ppf (t : t) =
  Fmt.pf ppf "chain[%a, %d trunks: %a]" Family.pp t.fam (size t)
    (Fmt.array ~sep:(Fmt.any " ") (fun ppf l ->
         Fmt.pf ppf "%s%s"
           (Apo.to_string t.fam l.lapo)
           (Value.name l.lvalue)))
    t.leaves
