(* The "jam" half of unroll-and-jam: merge unconditional straight-line
   block chains.

   After unrolling (and if-conversion of any diamonds inside the
   copies), the unrolled iterations are a chain of blocks linked by
   unconditional branches.  SLP seeds are runs of adjacent stores
   *within one block*, so the chain must be flattened for the
   vectorizer to see the iterations' stores side by side — that fusion
   is what turns an unrolled loop into contiguous vectorizable
   windows.

   A pair (b, s) merges when b ends in [br s], s is not b, s is not
   the entry block, b is s's only predecessor and s has no phis; b
   absorbs s's instructions and terminator, phi payloads in s's
   successors are retargeted from s to b, and s is deleted.  At the
   fixpoint a fully unrolled loop has collapsed into its preheader's
   block. *)

open Snslp_ir

(* One pass over the blocks in order: each block absorbs its chain of
   mergeable successors.  A merge only renames a predecessor, so a
   pair that cannot merge never becomes mergeable later, and merges
   commute: the single pass reaches the fixpoint that repeating the
   first available merge would, in O(blocks + instructions moved). *)
let run (f : Defs.func) : int =
  let preds = Dominance.predecessors f in
  let entry = Func.entry f in
  let removed = Hashtbl.create 16 in
  let merged = ref 0 in
  let rec absorb (b : Defs.block) =
    match b.Defs.term with
    | Defs.Br s
      when (not (Block.equal s b))
           && (not (Block.equal s entry))
           && (not (Block.fold (fun phi i -> phi || Instr.is_phi i) false s))
           && (match Hashtbl.find_opt preds s.Defs.bid with
              | Some [ p ] -> Block.equal p b
              | _ -> false) ->
        Dominance.absorb preds b s;
        Hashtbl.replace removed s.Defs.bid ();
        incr merged;
        absorb b
    | _ -> ()
  in
  List.iter (fun b -> if not (Hashtbl.mem removed b.Defs.bid) then absorb b) f.Defs.blocks;
  if !merged > 0 then
    f.Defs.blocks <- List.filter (fun b -> not (Hashtbl.mem removed b.Defs.bid)) f.Defs.blocks;
  !merged
