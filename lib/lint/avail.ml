(* Available expressions: the forward must-analysis with intersection
   at joins.

   An expression is the structural key of a pure value-producing
   instruction (opcode plus operand identities); loads participate too
   and are killed by any store — the alias model is not consulted, so
   availability under-approximates, which is the safe direction for a
   must-analysis.  The lattice needs an explicit top ("every
   expression") for the optimistic initial state of interior blocks,
   since the expression universe is not known up front. *)

open Snslp_ir
module SS = Set.Make (String)

module L = struct
  type t = Top | Avail of SS.t

  let equal a b =
    match (a, b) with
    | Top, Top -> true
    | Avail x, Avail y -> SS.equal x y
    | _ -> false

  (* Intersection join; [Top] is the identity. *)
  let join a b =
    match (a, b) with
    | Top, x | x, Top -> x
    | Avail x, Avail y -> Avail (SS.inter x y)
end

module D = Dataflow.Make (L)

type solution = D.solution

let load_prefix = "load:"

(* The structural key of a pure instruction: mnemonic (which encodes
   binop kinds, predicates, shuffle masks) plus operand keys.  Two
   instructions with the same key compute the same value at the same
   program point — the relation CSE uses. *)
let expr_key (i : Defs.instr) : string option =
  if not (Instr.has_result i) then None
  else
    let ops =
      Array.to_list (Array.map Value.key i.Defs.ops) |> String.concat ","
    in
    let prefix = if Instr.is_load i then load_prefix else "" in
    Some (Printf.sprintf "%s%s %s(%s)" prefix (Instr.opcode_mnemonic i) (Ty.to_string i.Defs.ty) ops)

let transfer (i : Defs.instr) (st : L.t) : L.t =
  match st with
  | L.Top -> L.Top (* unreachable-so-far blocks stay top *)
  | L.Avail s ->
      if Instr.is_store i then
        (* Conservative kill: any store invalidates every load. *)
        L.Avail (SS.filter (fun k -> not (String.length k >= 5 && String.sub k 0 5 = load_prefix)) s)
      else (
        match expr_key i with None -> st | Some k -> L.Avail (SS.add k s))

let compute (f : Defs.func) : solution =
  D.solve ~boundary:(L.Avail SS.empty) ~bottom:L.Top ~transfer f

(* [redundant s f] lists instructions whose expression is already
   available at their program point — CSE opportunities. *)
let redundant (s : solution) (f : Defs.func) : Defs.instr list =
  List.concat_map
    (fun b ->
      List.filter_map
        (fun (i, before, _after) ->
          match (before, expr_key i) with
          | L.Avail avail, Some k when SS.mem k avail -> Some i
          | _ -> None)
        (D.instr_states s b))
    f.Defs.blocks
