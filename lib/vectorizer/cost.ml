(* Cost estimation of an SLP graph (paper Figure 1 step 4).

   The cost of the graph is the sum over nodes of the savings from
   replacing each group of scalar instructions with a vector
   instruction (lower is better), plus per-lane packing costs for
   terminal gather/splat nodes and extract costs for values that are
   still needed as scalars outside the graph.  Vectorization proceeds
   when the total is below the threshold (0). *)

open Snslp_ir
open Snslp_costmodel

type breakdown = {
  per_node : (int * float) list; (* nid, cost contribution *)
  extracts : float;
  total : float;
}

let node_cost (config : Config.t) (n : Graph.node) : float =
  let model = config.Config.model in
  let lanes = Graph.lanes n in
  match n.Graph.kind with
  | Graph.K_splat -> model.Model.splat
  | Graph.K_gather -> model.Model.gather_lane *. float_of_int lanes
  | Graph.K_perm _ ->
      (* One shuffle of an already-available vector; the scalar costs
         are accounted to the node that owns the lanes. *)
      model.Model.scalar Model.C_shuffle
  | Graph.K_alt kinds ->
      let fam_mul = Family.of_binop kinds.(0) = Family.Mul_div in
      let scalar_sum =
        Array.fold_left
          (fun acc v ->
            match v with
            | Defs.Instr i -> (
                match Model.class_of_instr i with
                | Some c -> acc +. model.Model.scalar c
                | None -> acc)
            | _ -> acc)
          0.0 n.Graph.scalars
      in
      model.Model.alt config.Config.target ~lanes ~fam_mul -. scalar_sum
  | Graph.K_vec -> (
      match n.Graph.scalars.(0) with
      | Defs.Instr i -> (
          match Model.class_of_instr i with
          | Some c ->
              model.Model.vector c ~lanes -. (float_of_int lanes *. model.Model.scalar c)
          | None -> 0.0)
      | _ -> 0.0)

(* Scalars belonging to vectorizable nodes are erased by codegen; any
   remaining use outside those nodes needs an extractelement. *)
let extract_cost (config : Config.t) (g : Graph.t) : float =
  let model = config.Config.model in
  let func = g.Graph.func in
  let claimed = g.Graph.claimed in
  let cost = ref 0.0 in
  List.iter
    (fun (n : Graph.node) ->
      if Graph.is_vectorizable_kind n.Graph.kind then
        Array.iter
          (fun v ->
            match v with
            | Defs.Instr i when not (Instr.is_store i) ->
                let external_uses =
                  List.filter
                    (fun ((user : Defs.instr), _) ->
                      not (Hashtbl.mem claimed user.Defs.iid))
                    (Func.uses_of func (Defs.Instr i))
                in
                if external_uses <> [] then cost := !cost +. model.Model.extract
            | _ -> ())
          n.Graph.scalars)
    (Graph.nodes g);
  !cost

let of_graph (config : Config.t) (g : Graph.t) : breakdown =
  let per_node =
    List.map (fun (n : Graph.node) -> (n.Graph.nid, node_cost config n)) (Graph.nodes g)
  in
  let extracts = extract_cost config g in
  let total = List.fold_left (fun acc (_, c) -> acc +. c) extracts per_node in
  { per_node; extracts; total }

let profitable (config : Config.t) (b : breakdown) = b.total < config.Config.threshold

let pp ppf (b : breakdown) =
  Fmt.pf ppf "cost=%g (extracts=%g; nodes: %a)" b.total b.extracts
    (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (nid, c) -> Fmt.pf ppf "n%d=%g" nid c))
    b.per_node
