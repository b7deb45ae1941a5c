(* Super-Node construction, leaf/trunk reordering and code morphing
   (paper §IV, Listings 2 and 3).

   A Super-Node is the group of per-lane trunk chains ({!Chain.t}) of
   one operator family.  It is treated as a single fat node whose
   operands (the leaves) can be reordered across the whole node, under
   the APO legality rules:

   - a leaf alone may move to a position with the same APO
     (§IV-C2);
   - a leaf may move to a position with a *different* original APO if
     the trunk nodes are moved along with it, which is legal as long
     as every leaf keeps its own APO (§IV-C3).  In the regenerated
     left-leaning chain this means the leaf brings its accumulated
     operation with it; the only residual constraint is that the first
     position of a chain has no operator of its own and therefore must
     hold a [Plus]-APO leaf.

   After the best order is chosen (greedy, root-first, scored with the
   LSLP look-ahead), the per-lane chains are regenerated in the IR as
   left-leaning chains realising that order, and the old trunk
   instructions are erased — the "code massaging" the rest of SLP then
   benefits from. *)

open Snslp_ir

type t = {
  config : Config.t;
  func : Defs.func;
  lanes : Chain.t array;
  n : int; (* leaves per lane *)
  cache : Lookahead.cache option;
      (* the graph builder's look-ahead memo; scoring here happens
         strictly before this node's own IR rewrite, so the memo stays
         valid throughout one massage *)
}

(* --- Construction legality -------------------------------------------- *)

let disjoint_trunks (lanes : Chain.t array) =
  let seen = Int_table.create 16 in
  Array.for_all
    (fun (c : Chain.t) ->
      List.for_all
        (fun (i : Defs.instr) ->
          if Int_table.mem seen i.Defs.iid then false
          else begin
            Int_table.replace seen i.Defs.iid ();
            true
          end)
        c.Chain.trunk)
    lanes

(* [recognise config func roots] builds the Super-Node covering the
   given root group, if the lanes form compatible chains (same family,
   same element type, same operand count — the areCompatible checks of
   Listing 1). *)
let recognise ?cache (config : Config.t) (func : Defs.func) (roots : Defs.instr array) :
    t option =
  if Array.length roots < 2 then None
  else
    let chains = Array.map (Chain.discover config func) roots in
    if Array.exists Option.is_none chains then None
    else
      let lanes = Array.map Option.get chains in
      let c0 = lanes.(0) in
      let compatible (c : Chain.t) =
        c.Chain.fam = c0.Chain.fam
        && Ty.scalar_equal c.Chain.elem c0.Chain.elem
        && Array.length c.Chain.leaves = Array.length c0.Chain.leaves
      in
      if Array.for_all compatible lanes && disjoint_trunks lanes then
        Some { config; func; lanes; n = Array.length c0.Chain.leaves; cache }
      else None

(* --- Reordering state -------------------------------------------------- *)

type lane_state = {
  chain : Chain.t;
  used : bool array; (* per leaf index *)
  chosen : int array; (* position -> leaf index, -1 while unassigned *)
}

let plus_remaining (st : lane_state) ~excluding =
  let count = ref 0 in
  Array.iteri
    (fun k (l : Chain.leaf) ->
      if (not st.used.(k)) && k <> excluding && l.Chain.lapo = Apo.Plus then incr count)
    st.chain.Chain.leaves;
  !count

(* The completability reservation: the first chain position carries no
   operator of its own, so it must receive a Plus-APO leaf — both
   directly (pos = 0) and as a reservation (never consume the last
   unused Plus leaf while position 0 is still open, which it always is
   during the descending sweep). *)
let reservation_ok (st : lane_state) ~leaf ~pos =
  let apo = st.chain.Chain.leaves.(leaf).Chain.lapo in
  if pos = 0 then Apo.equal apo Apo.Plus
  else Apo.equal apo Apo.Minus || plus_remaining st ~excluding:leaf >= 1

(* Legality of moving only the leaf: the target position keeps its
   original APO, so the leaf must match it (§IV-C2). *)
let can_move_leaf_only (st : lane_state) ~leaf ~pos =
  (not st.used.(leaf))
  && Apo.equal st.chain.Chain.leaves.(leaf).Chain.lapo st.chain.Chain.leaves.(pos).Chain.lapo
  && reservation_ok st ~leaf ~pos

(* Legality of moving the leaf together with its trunk node (§IV-C3):
   the leaf brings its accumulated operation along, so any position is
   reachable subject only to the position-0 reservation. *)
let can_move_with_trunk (st : lane_state) ~leaf ~pos =
  (not st.used.(leaf)) && reservation_ok st ~leaf ~pos

let legal (st : lane_state) ~leaf ~pos =
  can_move_leaf_only st ~leaf ~pos || can_move_with_trunk st ~leaf ~pos

(* --- buildGroup (Listing 3) ------------------------------------------- *)

(* Scores are doubled with an identity bonus: when look-ahead ties, a
   leaf staying at its original position wins, so already-isomorphic
   code is left untouched. *)
let boosted score ~(leaf : Chain.leaf) ~pos =
  (2 * score) + if leaf.Chain.lpos = pos then 1 else 0

(* Given the chosen leaf of lane 0, greedily extend the group across
   the remaining lanes, picking for each lane the unused legal leaf
   with the best look-ahead score against the previous lane's pick. *)
let build_group (sn : t) (states : lane_state array) ~(left : int) ~(pos : int) :
    int array option =
  let depth = sn.config.Config.lookahead_depth in
  let chosen = Array.make (Array.length sn.lanes) (-1) in
  chosen.(0) <- left;
  let prev = ref states.(0).chain.Chain.leaves.(left).Chain.lvalue in
  let ok = ref true in
  for lane = 1 to Array.length sn.lanes - 1 do
    if !ok then begin
      let st = states.(lane) in
      let best = ref None in
      Array.iteri
        (fun k (l : Chain.leaf) ->
          (* Two-step legality, as in Listing 3: the cheap leaf-only
             move first, the trunk-assisted move second. *)
          if can_move_leaf_only st ~leaf:k ~pos || can_move_with_trunk st ~leaf:k ~pos
          then begin
            let s =
              boosted (Lookahead.score ?cache:sn.cache ~depth !prev l.Chain.lvalue) ~leaf:l
                ~pos
            in
            match !best with
            | Some (_, bs) when bs >= s -> ()
            | _ -> best := Some (k, s)
          end)
        st.chain.Chain.leaves;
      match !best with
      | None -> ok := false
      | Some (k, _) ->
          chosen.(lane) <- k;
          prev := st.chain.Chain.leaves.(k).Chain.lvalue
    end
  done;
  if !ok then Some chosen else None

let group_score (sn : t) (states : lane_state array) (chosen : int array) ~pos =
  let vals =
    Array.to_list
      (Array.mapi
         (fun lane k -> states.(lane).chain.Chain.leaves.(k).Chain.lvalue)
         chosen)
  in
  let base =
    Lookahead.group_score ?cache:sn.cache ~depth:sn.config.Config.lookahead_depth vals
  in
  let identity_bonus =
    Array.to_list chosen
    |> List.mapi (fun lane k ->
           if states.(lane).chain.Chain.leaves.(k).Chain.lpos = pos then 1 else 0)
    |> List.fold_left ( + ) 0
  in
  (2 * base * Array.length chosen) + identity_bonus

(* --- reorderLeavesAndTrunks (Listing 2) -------------------------------- *)

(* Chooses, for every operand position of the Super-Node, the group of
   leaves (one per lane) that maximises the look-ahead score, visiting
   positions closest to the root first.  Returns the per-lane
   assignment position -> leaf index. *)
let reorder (sn : t) : lane_state array =
  let states =
    Array.map
      (fun chain ->
        {
          chain;
          used = Array.make sn.n false;
          chosen = Array.make sn.n (-1);
        })
      sn.lanes
  in
  for pos = sn.n - 1 downto 0 do
    let best : (int array * int) option ref = ref None in
    Array.iteri
      (fun left (_ : Chain.leaf) ->
        if legal states.(0) ~leaf:left ~pos then
          match build_group sn states ~left ~pos with
          | None -> ()
          | Some chosen -> (
              let s = group_score sn states chosen ~pos in
              match !best with
              | Some (_, bs) when bs >= s -> ()
              | _ -> best := Some (chosen, s)))
      states.(0).chain.Chain.leaves;
    match !best with
    | None ->
        (* Cannot happen: the reservation rule keeps a Plus leaf for
           position 0 and any non-reserved leaf is legal elsewhere. *)
        assert false
    | Some (chosen, _) ->
        Array.iteri
          (fun lane k ->
            states.(lane).used.(k) <- true;
            states.(lane).chosen.(pos) <- k)
          chosen
  done;
  states

(* --- Code generation (SN.generateCode) --------------------------------- *)

let assignment_is_identity (states : lane_state array) =
  Array.for_all
    (fun st ->
      let ok = ref true in
      Array.iteri
        (fun pos k -> if st.chain.Chain.leaves.(k).Chain.lpos <> pos then ok := false)
        st.chosen;
      !ok)
    states

(* Rebuild one lane as a left-leaning chain realising the chosen leaf
   order ({!Chain.rewrite}, which erases the old trunk); returns the new
   root. *)
let regenerate_lane (func : Defs.func) (st : lane_state) : Defs.instr =
  let chain = st.chain in
  let terms =
    Array.to_list st.chosen
    |> List.map (fun k ->
           let l = chain.Chain.leaves.(k) in
           (l.Chain.lvalue, l.Chain.lapo))
  in
  let r = Chain.rewrite func chain terms in
  assert (List.length r.Chain.erased = Chain.size chain);
  match r.Chain.value with Defs.Instr i -> i | _ -> assert false

type result = {
  new_roots : Defs.instr array;
  size : int; (* trunk depth per lane, the node-size statistic *)
  reordered : bool;
}

(* [massage config func roots] attempts the full Super-Node treatment
   of the group [roots]: recognise, reorder, regenerate.  The IR is
   modified when a reordering was applied (this is semantics-preserving
   scalar code motion, so it needs no undo even if the surrounding
   graph is later judged unprofitable). *)
let massage ?cache (config : Config.t) (func : Defs.func) (roots : Defs.instr array) :
    result option =
  match recognise ?cache config func roots with
  | None -> None
  | Some sn ->
      let states = reorder sn in
      let size = Chain.size sn.lanes.(0) in
      if assignment_is_identity states && Array.for_all Chain.is_canonical sn.lanes then
        Some { new_roots = roots; size; reordered = false }
      else
        let new_roots = Array.map (regenerate_lane func) states in
        Some { new_roots; size; reordered = true }
