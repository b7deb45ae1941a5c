(* If-conversion: flatten control-flow diamonds whose branches only
   compute pure values and store them, turning the stores into
   unconditional stores of [select]s.  This converts predicated code
   into the straight-line form SLP can vectorize — the idea the paper
   cites from Shin et al. [39].

     if (c) { A[i] = x; } else { A[i] = y; }   ==>   A[i] = select c, x, y
     if (c) { A[i] = x; }                      ==>   A[i] = select c, x, A[i]

   Legality here leans on KernelC's memory model: array parameters are
   fully allocated, so speculating branch loads (and re-storing an
   unchanged value on the not-taken path) is safe.  The pass bails out
   of a diamond when:

   - a branch contains a non-pure instruction other than a store;
   - two stores (within or across branches) may overlap without being
     provably the same location (the select merge needs an exact
     pairing);
   - a branch load may overlap a branch store (the flattened order
     hoists all loads above all stores). *)

open Snslp_ir
open Snslp_analysis

let is_pure (i : Defs.instr) = Instr.has_result i

(* Exact-same-location test for pairing stores across branches. *)
let same_location (a : Defs.instr) (b : Defs.instr) =
  match (Address.of_instr a, Address.of_instr b) with
  | Some aa, Some ab -> Address.same_base aa ab && Affine.equal aa.Address.index ab.Address.index
  | _ -> false

let may_conflict (a : Defs.instr) (b : Defs.instr) =
  match (Deps.memloc_of_instr a, Deps.memloc_of_instr b) with
  | Some la, Some lb -> Deps.may_overlap la lb
  | _ -> true

(* A branch body eligible for conversion: pure instructions plus
   stores, no store/store or load/store overlap hazards. *)
let classify_branch (b : Defs.block) : (Defs.instr list * Defs.instr list) option =
  let instrs = Block.instrs b in
  if not (List.for_all (fun i -> is_pure i || Instr.is_store i) instrs) then None
  else begin
    let stores = List.filter Instr.is_store instrs in
    let distinct_pairs_ok =
      let rec go = function
        | [] -> true
        | s :: rest ->
            List.for_all (fun t -> same_location s t || not (may_conflict s t)) rest
            && go rest
      in
      go stores
    in
    (* Flattening hoists every load above every store, so the only
       intra-branch hazard is a store that *precedes* an overlapping
       load: that load must see the stored value but would read the
       pre-state after flattening.  A load before its store — the
       accumulate pattern — is safe. *)
    let load_store_ok =
      let rec walk seen_stores = function
        | [] -> true
        | (i : Defs.instr) :: rest ->
            if Instr.is_store i then walk (i :: seen_stores) rest
            else if
              Instr.is_load i && List.exists (fun s -> may_conflict i s) seen_stores
            then false
            else walk seen_stores rest
      in
      walk [] instrs
    in
    (* Two stores to the *same* location in one branch would need
       ordering; keep only the simple case. *)
    let no_dup_in_branch =
      let rec go = function
        | [] -> true
        | s :: rest -> List.for_all (fun t -> not (same_location s t)) rest && go rest
      in
      go stores
    in
    if distinct_pairs_ok && load_store_ok && no_dup_in_branch then
      Some (List.filter is_pure instrs, stores)
    else None
  end

(* The diamond (or triangle) hanging off [b], if its shape and content
   are convertible. *)
type diamond = {
  cond : Defs.value;
  then_b : Defs.block;
  else_b : Defs.block option; (* None: triangle, else-edge goes to join *)
  join : Defs.block;
}

(* [preds] are the CFG predecessors, kept current as diamonds
   flatten.  A join that starts with a phi is refused, as jam refuses
   to absorb a block with phis: merging it into [b] would leave the
   phi in a block that is not at a control-flow merge (the frontend
   never emits such a join, but a parsed .ir file may). *)
let match_diamond preds (b : Defs.block) : diamond option =
  match Block.terminator b with
  | Defs.Cond_br (cond, t, e) -> (
      (* x must be reachable only from b (our frontend guarantees
         this shape, but verify it on the CFG). *)
      let only_pred (x : Defs.block) =
        List.for_all (Block.equal b) (Hashtbl.find preds x.Defs.bid)
      in
      let phi_free (x : Defs.block) =
        match Block.first x with Some i -> not (Instr.is_phi i) | None -> true
      in
      match (Block.terminator t, Block.terminator e) with
      | Defs.Br jt, Defs.Br je
        when (not (Block.equal t e)) && Block.equal jt je && (not (Block.equal jt t))
             && (not (Block.equal jt e))
             && only_pred t && only_pred e && phi_free jt ->
          Some { cond; then_b = t; else_b = Some e; join = jt }
      | Defs.Br jt, _
        when Block.equal jt e && only_pred t && (not (Block.equal jt t)) && phi_free e ->
          (* if-without-else: cond_br to (t, join). *)
          Some { cond; then_b = t; else_b = None; join = e }
      | _ -> None)
  | _ -> None

(* Flatten one diamond into [b]; returns false when ineligible. *)
let convert (f : Defs.func) preds (b : Defs.block) (d : diamond) : bool =
  let then_parts = classify_branch d.then_b in
  let else_parts = Option.map classify_branch d.else_b |> Option.value ~default:(Some ([], [])) in
  (* The join must be reachable only through this diamond so its body
     can be merged into [b]. *)
  let expected_preds =
    match d.else_b with Some e -> [ d.then_b; e ] | None -> [ b; d.then_b ]
  in
  let join_ok =
    List.for_all
      (fun p -> List.exists (Block.equal p) expected_preds)
      (Hashtbl.find preds d.join.Defs.bid)
  in
  match (then_parts, else_parts) with
  | Some (t_pure, t_stores), Some (e_pure, e_stores) when join_ok ->
      (* Cross-branch store hazards: unmatched overlapping pairs. *)
      let cross_ok =
        List.for_all
          (fun s ->
            List.for_all (fun t -> same_location s t || not (may_conflict s t)) e_stores)
          t_stores
      in
      if not cross_ok then false
      else begin
        (* Move pure instructions (loads speculated) into [b]. *)
        let move (i : Defs.instr) src =
          Block.remove src i;
          Block.append b i
        in
        List.iter (fun i -> move i d.then_b) t_pure;
        (match d.else_b with
        | Some e -> List.iter (fun i -> move i e) e_pure
        | None -> ());
        (* Merge stores. *)
        let builder = Builder.create f ~at:b in
        let emit_select v_true v_false =
          Instr.value (Builder.select builder d.cond v_true v_false)
        in
        let paired =
          List.map
            (fun (s : Defs.instr) ->
              (s, List.find_opt (fun t -> same_location s t) e_stores))
            t_stores
        in
        let unpaired_else =
          List.filter
            (fun (s : Defs.instr) ->
              not (List.exists (fun (_, m) -> match m with Some t -> Instr.equal t s | None -> false) paired))
            e_stores
        in
        List.iter
          (fun ((s : Defs.instr), partner) ->
            let addr = s.Defs.ops.(1) in
            let v =
              match partner with
              | Some (t : Defs.instr) -> emit_select s.Defs.ops.(0) t.Defs.ops.(0)
              | None ->
                  (* Triangle / unmatched: keep the old value on the
                     not-taken path. *)
                  let old = Builder.load builder addr in
                  emit_select s.Defs.ops.(0) (Instr.value old)
            in
            ignore (Builder.store builder v addr);
            Block.remove d.then_b s;
            (match partner with Some t -> Block.remove (Option.get d.else_b) t | None -> ()))
          paired;
        List.iter
          (fun (s : Defs.instr) ->
            let addr = s.Defs.ops.(1) in
            let old = Builder.load builder addr in
            let v = emit_select (Instr.value old) s.Defs.ops.(0) in
            ignore (Builder.store builder v addr);
            Block.remove (Option.get d.else_b) s)
          unpaired_else;
        (* Merge the join body and take its terminator. *)
        Dominance.absorb preds b d.join;
        true
      end
  | _ -> false

(* [run func] converts diamonds to fixpoint (innermost first); returns
   how many were flattened.  The branches and join of a flattened
   diamond are marked dead, and the block list drops them once per
   round. *)
let run (func : Defs.func) : int =
  let preds = Dominance.predecessors func in
  let dead = Hashtbl.create 16 in
  let converted = ref 0 in
  let progress = ref true in
  while !progress do
    progress := false;
    List.iter
      (fun (b : Defs.block) ->
        if not (Hashtbl.mem dead b.Defs.bid) then
          match match_diamond preds b with
          | Some d ->
              if convert func preds b d then begin
                List.iter
                  (fun (x : Defs.block) -> Hashtbl.replace dead x.Defs.bid ())
                  (d.join :: d.then_b :: Option.to_list d.else_b);
                incr converted;
                progress := true
              end
          | None -> ())
      func.Defs.blocks;
    if !progress then
      func.Defs.blocks <-
        List.filter (fun (b : Defs.block) -> not (Hashtbl.mem dead b.Defs.bid)) func.Defs.blocks
  done;
  if !converted > 0 then Verifier.verify_exn func;
  !converted
