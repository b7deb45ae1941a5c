(* A generic worklist dataflow engine.

   The engine is a functor over a join-semilattice; an analysis
   supplies a boundary state (at the function entry) and a
   per-instruction transfer function, and states flow forward.  Blocks
   are iterated to a fixpoint; the CFG is the straight-line and
   ifconv-diamond shapes the frontend produces, but the solver is a
   plain Kildall loop and handles arbitrary (including cyclic) graphs.

   Per-instruction states inside a block are recomputed on demand from
   the block-entry solution ([instr_states]) rather than stored, so
   the fixpoint only keeps two states per block. *)

open Snslp_ir

module type LATTICE = sig
  type t

  val equal : t -> t -> bool
  val join : t -> t -> t
end

module Make (L : LATTICE) = struct
  type transfer = Defs.instr -> L.t -> L.t

  type solution = {
    transfer : transfer;
    entry_of : (int, L.t) Hashtbl.t; (* bid -> state at block entry *)
  }

  let solve ~boundary ~bottom ~transfer (f : Defs.func) : solution =
    let blocks = f.Defs.blocks in
    let preds = Dominance.predecessors f in
    let entry_of = Hashtbl.create 8 and exit_of = Hashtbl.create 8 in
    List.iter
      (fun b ->
        Hashtbl.replace entry_of b.Defs.bid bottom;
        Hashtbl.replace exit_of b.Defs.bid bottom)
      blocks;
    let entry_block = match blocks with b :: _ -> Some b | [] -> None in
    (* [input b] joins the states flowing into [b] from its
       predecessors; the entry block also joins the boundary state. *)
    let input (b : Defs.block) =
      let from_preds =
        List.fold_left
          (fun st p -> L.join st (Hashtbl.find exit_of p.Defs.bid))
          bottom (Hashtbl.find preds b.Defs.bid)
      in
      if match entry_block with Some e -> Block.equal e b | None -> false then
        L.join boundary from_preds
      else from_preds
    in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun b ->
          let inp = input b in
          let out = Block.fold (fun st i -> transfer i st) inp b in
          if not (L.equal inp (Hashtbl.find entry_of b.Defs.bid)) then begin
            Hashtbl.replace entry_of b.Defs.bid inp;
            changed := true
          end;
          if not (L.equal out (Hashtbl.find exit_of b.Defs.bid)) then begin
            Hashtbl.replace exit_of b.Defs.bid out;
            changed := true
          end)
        blocks
    done;
    { transfer; entry_of }

  (* [instr_states s b] replays the transfer across [b] and returns,
     per instruction, the state entering and the state leaving its
     transfer. *)
  let instr_states (s : solution) (b : Defs.block) : (Defs.instr * L.t * L.t) list =
    let st = ref (Hashtbl.find s.entry_of b.Defs.bid) in
    List.map
      (fun i ->
        let before = !st in
        st := s.transfer i before;
        (i, before, !st))
      (Block.instrs b)
end
