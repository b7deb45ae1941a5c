(* Revec-style re-vectorization: vector-to-vector re-widening.

   The SLP vectorizer emits bundles at whatever width it could prove
   profitable — which is the width of the target it compiled *for*,
   not necessarily the width of the target the code will *run on*
   ("Revec: Program Rejuvenation through Revectorization", PAPERS.md).
   Greedy packing has the same gap at a smaller scale: a wide seed
   window can be rejected on cost (a non-isomorphic leaf layer prices
   as a giant gather) while its halves vectorize cleanly, leaving the
   block full of narrow bundles on a machine with spare lanes.

   This pass closes the gap on straight-line IR.  It finds pairs of
   adjacent same-shape vector stores (the roots the vectorizer
   anchors on), re-packs each pair into one double-width store, and
   widens the defining computation structurally:

   - adjacent vector loads pair into one double-width load;
   - same-opcode vector binops pair into a double-width binop;
   - same-family binop/alt-binop pairs widen into an alt-binop whose
     per-lane opcode mask is the concatenation of the halves' masks;
   - shuffles of the same two sources widen by concatenating masks;
   - anything else falls back to a widening concat — one shuffle
     whose mask [0 .. 2L-1] glues the two narrow registers together.

   Legality is the vectorizer's admission: each store and load pair
   is checked by {!Snslp_analysis.Deps.bundle_placement}, and every
   pair the plan fuses together by {!Snslp_analysis.Deps.schedulable}.
   Profitability comes from the target's machine model: a pair
   commits only when the narrow instructions that die cost strictly
   more than the wide instructions that replace them.  The wide
   instructions are positioned by codegen's scheduler
   ({!Snslp_vectorizer.Codegen.place}): each wide load ranks just
   before the load its bundle placement fuses at, everything else just
   before the later narrow store, and a wide load or store stands for
   the narrow accesses it replaces in memory order.  What the pair
   touched is then verified locally.  Committed rounds iterate, so
   128-bit bundles reach 512-bit targets in two doublings.  The dead
   narrow chains are left for DCE, which runs right after this pass
   in the pipeline. *)

open Snslp_ir
open Snslp_analysis
open Snslp_costmodel
module Codegen = Snslp_vectorizer.Codegen
module Family = Snslp_vectorizer.Family

type report = { pairs : int; widened : int; rounds : int }

let empty = { pairs = 0; widened = 0; rounds = 0 }

(* Two doublings reach 512-bit from 128-bit; one spare round for
   mixed-width blocks. *)
let max_rounds = 3

(* --- The widening plan. -------------------------------------------- *)

(* A plan is a DAG mirroring the paired narrow DAGs; nodes are created
   child-first, so the creation list is a topological order and
   emission can walk it directly.  [claimed] collects the narrow
   instructions the plan replaces — they only actually die (and only
   actually count as savings) if every use is inside the dying set.
   A wide load ranks just before [at], the narrow load its bundle
   placement fuses at. *)
type shape =
  | P_load of { left : Defs.instr; right : Defs.instr; at : Defs.instr }
  | P_bin of { kind : Defs.binop; a : node; b : node }
  | P_alt of { kinds : Defs.binop array; a : node; b : node }
  | P_shuf of { a : Defs.value; b : Defs.value; mask : int array }
  | P_concat of { a : Defs.value; b : Defs.value }

and node = { nid : int; lanes : int; (* result (wide) lanes *) elem : Ty.scalar; shape : shape }

(* Value pairs under {!Value.equal}. *)
module Pairs = Hashtbl.Make (struct
  type t = Defs.value * Defs.value

  let equal (a0, a1) (b0, b1) = Value.equal a0 b0 && Value.equal a1 b1
  let hash (v0, v1) = (31 * Value.hash v0) + Value.hash v1
end)

type ctx = {
  block : Defs.block;
  deps : Deps.t;
  mutable next_nid : int;
  memo : node Pairs.t; (* (v0, v1) -> plan node *)
  mutable created : node list; (* reverse creation order *)
  claimed : (int, Defs.instr) Hashtbl.t;
  mutable fused : Defs.value array list; (* narrow pairs that become one instruction *)
}

let mk ctx ~lanes ~elem shape =
  let n = { nid = ctx.next_nid; lanes; elem; shape } in
  ctx.next_nid <- ctx.next_nid + 1;
  ctx.created <- n :: ctx.created;
  n

(* The pair [i0], [i1] becomes one wide instruction. *)
let fuse ctx (i0 : Defs.instr) (i1 : Defs.instr) =
  Hashtbl.replace ctx.claimed i0.Defs.iid i0;
  Hashtbl.replace ctx.claimed i1.Defs.iid i1;
  ctx.fused <- [| Instr.value i0; Instr.value i1 |] :: ctx.fused

(* The universal fallback: glue the two narrow registers with one
   concat shuffle, mask = identity over the doubled lanes. *)
let concat_mask lanes = Array.init (2 * lanes) Fun.id

let concat ctx v0 v1 =
  let t = Value.ty v0 in
  mk ctx ~lanes:(2 * Ty.lanes t) ~elem:(Ty.elem t) (P_concat { a = v0; b = v1 })

let kinds_of (i : Defs.instr) lanes =
  match i.Defs.op with
  | Defs.Binop k -> Array.make lanes k
  | Defs.Alt_binop ks -> ks
  | _ -> invalid_arg "Revec.kinds_of"

(* [pair ctx v0 v1] plans the wide value whose low lanes are [v0] and
   high lanes [v1].  Memoized on the value pair so shared narrow
   subtrees plan (and later emit) one wide node. *)
let rec pair ctx (v0 : Defs.value) (v1 : Defs.value) : node =
  match Pairs.find_opt ctx.memo (v0, v1) with
  | Some n -> n
  | None ->
      let n = pair_fresh ctx v0 v1 in
      Pairs.add ctx.memo (v0, v1) n;
      n

and pair_fresh ctx v0 v1 =
  let in_block i =
    match Instr.block i with Some b -> Block.equal b ctx.block | None -> false
  in
  match (v0, v1) with
  | Defs.Instr i0, Defs.Instr i1
    when i0.Defs.iid <> i1.Defs.iid
         && in_block i0 && in_block i1
         && Ty.is_vector i0.Defs.ty
         && Ty.equal i0.Defs.ty i1.Defs.ty -> (
      let lanes = Ty.lanes i0.Defs.ty in
      let elem = Ty.elem i0.Defs.ty in
      let wide = 2 * lanes in
      match (i0.Defs.op, i1.Defs.op) with
      | Defs.Load, Defs.Load -> (
          match (Address.of_instr i0, Address.of_instr i1) with
          | Some a0, Some a1 when Address.delta a0 a1 = Some lanes -> (
              (* The double-width load reads exactly the union of the
                 two narrow ranges, so sliding legality of the pair is
                 sliding legality of the wide load. *)
              match Deps.bundle_placement ctx.deps [ i0; i1 ] with
              | Some placement ->
                  fuse ctx i0 i1;
                  let first, last = if Block.precedes i0 i1 then (i0, i1) else (i1, i0) in
                  let at = if placement = Deps.At_first then first else last in
                  mk ctx ~lanes:wide ~elem (P_load { left = i0; right = i1; at })
              | None -> concat ctx v0 v1)
          | _ -> concat ctx v0 v1)
      | Defs.Binop k0, Defs.Binop k1 when k0 = k1 ->
          fuse ctx i0 i1;
          let a = pair ctx i0.Defs.ops.(0) i1.Defs.ops.(0) in
          let b = pair ctx i0.Defs.ops.(1) i1.Defs.ops.(1) in
          mk ctx ~lanes:wide ~elem (P_bin { kind = k0; a; b })
      | (Defs.Binop _ | Defs.Alt_binop _), (Defs.Binop _ | Defs.Alt_binop _) -> (
          (* Same family across every lane of both halves widens into
             one alt-binop whose opcode mask is the concatenation —
             [addsub ++ addsub] at 4 lanes is the AVX vaddsubpd
             pattern. *)
          let kinds = Array.append (kinds_of i0 lanes) (kinds_of i1 lanes) in
          let fam = Family.of_binop kinds.(0) in
          if
            Array.for_all (fun k -> Family.same_family kinds.(0) k) kinds
            && Family.allowed_on fam elem
          then begin
            fuse ctx i0 i1;
            let a = pair ctx i0.Defs.ops.(0) i1.Defs.ops.(0) in
            let b = pair ctx i0.Defs.ops.(1) i1.Defs.ops.(1) in
            mk ctx ~lanes:wide ~elem (P_alt { kinds; a; b })
          end
          else concat ctx v0 v1)
      | Defs.Shuffle m0, Defs.Shuffle m1
        when Value.equal i0.Defs.ops.(0) i1.Defs.ops.(0)
             && Value.equal i0.Defs.ops.(1) i1.Defs.ops.(1) ->
          (* Same two sources: the wide permute is the mask
             concatenation (indices already address the shared
             source concatenation, so they transfer unchanged). *)
          fuse ctx i0 i1;
          mk ctx ~lanes:wide ~elem
            (P_shuf { a = i0.Defs.ops.(0); b = i0.Defs.ops.(1); mask = Array.append m0 m1 })
      | _ -> concat ctx v0 v1)
  | _ -> concat ctx v0 v1

(* --- Pricing. ------------------------------------------------------ *)

let node_cost (model : Model.t) (target : Target.t) (n : node) =
  match n.shape with
  | P_load _ -> model.Model.vector Model.C_load ~lanes:n.lanes
  | P_bin { kind; _ } ->
      let cls = Model.class_of_binop kind (Ty.vector ~lanes:n.lanes n.elem) in
      model.Model.vector cls ~lanes:n.lanes
  | P_alt { kinds; _ } ->
      let fam_mul = Array.exists (fun k -> k = Defs.Mul || k = Defs.Div) kinds in
      model.Model.alt target ~lanes:n.lanes ~fam_mul
  | P_shuf _ | P_concat _ -> model.Model.vector Model.C_shuffle ~lanes:n.lanes

(* The claimed narrow instructions that actually die: a claimed
   instruction survives if any attached use lies outside the dying set
   (the pass never touches existing uses, DCE only erases the unused).
   Greatest fixpoint: start from everything claimed, evict while an
   outside use exists; each round asks the use lists of the claimed
   instructions alone.  The pair's two stores have no uses and are
   erased unconditionally. *)
let dying_savings model target (ctx : ctx) ~(erased : Defs.instr list) =
  let erased_ids = List.map (fun i -> i.Defs.iid) erased in
  let dying = Hashtbl.copy ctx.claimed in
  List.iter (fun id -> Hashtbl.remove dying id) erased_ids;
  let kept (u : Defs.instr) _ =
    u.Defs.iblock <> None
    && not (Hashtbl.mem dying u.Defs.iid || List.mem u.Defs.iid erased_ids)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun id i ->
        if Use.exists kept i then begin
          Hashtbl.remove dying id;
          changed := true
        end)
      (Hashtbl.copy dying)
  done;
  let sum = ref 0.0 in
  Hashtbl.iter (fun _ i -> sum := !sum +. Model.instr_cost model target i) dying;
  List.iter (fun i -> sum := !sum +. Model.instr_cost model target i) erased;
  !sum

(* --- Commit. ------------------------------------------------------- *)

(* Emit the plan at the end of the block, in creation (= topological)
   order, then hand it to codegen's scheduler with the pair's stores
   as erased, and verify what that touched.  Returns the number of
   wide instructions. *)
let emit ~scope func block (ctx : ctx) root s_left s_right =
  let b = Builder.create func ~at:block in
  let last = if Block.precedes s_left s_right then s_right else s_left in
  let emitted : (int, Defs.value) Hashtbl.t = Hashtbl.create 16 in
  let value_of n = Hashtbl.find emitted n.nid in
  let placed =
    List.map
      (fun n ->
        let i, at, stands_for =
          match n.shape with
          | P_load { left; right; at } ->
              (Builder.vload b ~lanes:n.lanes left.Defs.ops.(0), at, [ left; right ])
          | P_bin { kind; a; b = b' } -> (Builder.binop b kind (value_of a) (value_of b'), last, [])
          | P_alt { kinds; a; b = b' } ->
              (Builder.alt_binop b kinds (value_of a) (value_of b'), last, [])
          | P_shuf { a; b = b'; mask } -> (Builder.shuffle b a b' mask, last, [])
          | P_concat { a; b = b' } ->
              (Builder.shuffle b a b' (concat_mask (Ty.lanes (Value.ty a))), last, [])
        in
        Hashtbl.replace emitted n.nid (Instr.value i);
        (i, at, stands_for))
      (List.rev ctx.created)
  in
  let erased = [ s_left; s_right ] in
  let ws = Builder.store b (value_of root) s_left.Defs.ops.(1) in
  let moved = Codegen.place ctx.deps block ~erased (placed @ [ (ws, last, erased) ]) in
  Verifier.verify_local_exn scope ~touched:moved ~erased;
  List.length placed + 1

(* --- Store-pair discovery. ----------------------------------------- *)

(* Adjacent same-shape vector store pairs of one block: the stores'
   address classes split by lane count ({!Address.classes}), each cut
   into runs whose offsets step by the lane count, each run paired
   left to right.  Left-to-right keeps pairs aligned to the run start,
   so the next round can pair the pairs; of two stores at one offset
   the second starts the next run. *)
let store_pairs block ~lanes_for =
  let lanes (i : Defs.instr) = Ty.lanes (Value.ty i.Defs.ops.(0)) in
  let key (i : Defs.instr) =
    match i.Defs.op with
    | Defs.Store when Ty.is_vector (Value.ty i.Defs.ops.(0)) -> (
        match Address.of_instr i with
        | Some a when 2 * lanes i <= lanes_for a.Address.elem -> Some (a, lanes i)
        | _ -> None)
    | _ -> None
  in
  let rec pair_up = function
    | (_, s0) :: (_, s1) :: rest -> (s0, s1) :: pair_up rest
    | _ -> []
  in
  Address.classes key (Block.instrs block)
  |> List.concat_map (fun cls ->
         List.concat_map pair_up (Address.runs ~step:(lanes (snd (List.hd cls))) cls))

(* --- Driver. ------------------------------------------------------- *)

let try_pair ~scope func block deps model target (s_left, s_right) =
  match Deps.bundle_placement deps [ s_left; s_right ] with
  | Some Deps.At_last ->
      let ctx =
        {
          block;
          deps;
          next_nid = 0;
          memo = Pairs.create 32;
          created = [];
          claimed = Hashtbl.create 32;
          fused = [];
        }
      in
      let root = pair ctx s_left.Defs.ops.(0) s_right.Defs.ops.(0) in
      let wide_cost =
        List.fold_left (fun acc n -> acc +. node_cost model target n) 0.0 ctx.created
        +. model.Model.vector Model.C_store ~lanes:root.lanes
      in
      let savings = dying_savings model target ctx ~erased:[ s_left; s_right ] in
      if
        savings > wide_cost
        && Deps.schedulable deps ([| Instr.value s_left; Instr.value s_right |] :: ctx.fused)
      then Some (emit ~scope func block ctx root s_left s_right)
      else None
  | Some Deps.At_first | None -> None

let run_block ~scope func model target (block : Defs.block) =
  let lanes_for = Target.lanes_for target in
  let pairs = ref 0 in
  let widened = ref 0 in
  let rounds = ref 0 in
  let progress = ref true in
  (* One analysis serves every round; it re-reads the block after each
     committed pair. *)
  let deps = Deps.of_block block in
  while !progress && !rounds < max_rounds do
    progress := false;
    List.iter
      (fun cand ->
        match try_pair ~scope func block deps model target cand with
        | Some emitted ->
            incr pairs;
            widened := !widened + emitted;
            progress := true
        | None -> ())
      (store_pairs block ~lanes_for);
    if !progress then incr rounds
  done;
  (!pairs, !widened, !rounds)

let run ?(model = Model.x86) ~(target : Target.t) (func : Defs.func) : report =
  let scope = Verifier.scope func in
  List.fold_left
    (fun acc block ->
      let p, w, r = run_block ~scope func model target block in
      { pairs = acc.pairs + p; widened = acc.widened + w; rounds = max acc.rounds r })
    empty (Func.blocks func)
