(* Common subexpression elimination, block-local.

   Two pure instructions with the same opcode, type and operands
   compute the same value; the later one is replaced by the earlier.
   Loads are also unified when no may-aliasing store intervenes.  One
   forward sweep per block through the shared {!Rewrite} machinery
   keeps the pass linear. *)

open Snslp_ir
open Snslp_analysis

let commutative (i : Defs.instr) =
  match i.Defs.op with
  | Defs.Binop b -> Defs.is_commutative b && Array.length i.Defs.ops = 2
  | _ -> false

(* Instructions keyed by what they compute: opcode, result type and
   operands by value identity ({!Value.equal}), the two operands of a
   commutative binop unordered so a+b meets b+a.  An instruction is
   its own key: the sweep rewrites only the operands of the
   instruction it visits, so a key never changes while it is in a
   table. *)
module Computation = Hashtbl.Make (struct
  type t = Defs.instr

  let equal (a : Defs.instr) (b : Defs.instr) =
    Instr.same_opcode a b
    && Ty.equal a.Defs.ty b.Defs.ty
    && Array.length a.Defs.ops = Array.length b.Defs.ops
    && (Array.for_all2 Value.equal a.Defs.ops b.Defs.ops
       || commutative a
          && Value.equal a.Defs.ops.(0) b.Defs.ops.(1)
          && Value.equal a.Defs.ops.(1) b.Defs.ops.(0))

  let hash (i : Defs.instr) =
    let ops = i.Defs.ops in
    let h =
      if commutative i then Value.hash ops.(0) + Value.hash ops.(1)
      else Array.fold_left (fun h v -> (31 * h) + Value.hash v) 0 ops
    in
    (31 * h) + Hashtbl.hash i.Defs.op
end)

let pure (i : Defs.instr) =
  match i.Defs.op with
  | Defs.Binop _ | Defs.Gep | Defs.Icmp _ | Defs.Fcmp _ | Defs.Select | Defs.Insert
  | Defs.Extract | Defs.Shuffle _ ->
      true
  | Defs.Load | Defs.Store | Defs.Alt_binop _ -> false
  (* Two phis with equal operands still differ per incoming edge
     ordering and block position; never CSE them. *)
  | Defs.Phi _ -> false

let run (func : Defs.func) : int =
  (* Per-block value tables, reset on block entry (block-local CSE). *)
  let seen : Defs.value Computation.t = Computation.create 64 in
  let avail_loads : (Defs.instr * Deps.memloc) Computation.t = Computation.create 16 in
  let current_block = ref (-1) in
  let kill_loads (st : Defs.instr) =
    match Deps.memloc_of_instr st with
    | None -> Computation.reset avail_loads
    | Some stl ->
        Computation.filter_map_inplace
          (fun _ ((_, ldl) as e) -> if Deps.may_overlap stl ldl then None else Some e)
          avail_loads
  in
  Rewrite.run func (fun _ctx block i ->
      if block.Defs.bid <> !current_block then begin
        current_block := block.Defs.bid;
        Computation.reset seen;
        Computation.reset avail_loads
      end;
      match i.Defs.op with
      | Defs.Store ->
          kill_loads i;
          None
      | Defs.Load -> (
          (* Two loads are the same computation when they read the
             same address value at the same type. *)
          match Computation.find_opt avail_loads i with
          | Some (earlier, _) -> Some (Defs.Instr earlier)
          | None ->
              (match Deps.memloc_of_instr i with
              | Some loc -> Computation.replace avail_loads i (i, loc)
              | None -> ());
              None)
      | _ when pure i -> (
          match Computation.find_opt seen i with
          | Some earlier -> Some earlier
          | None ->
              Computation.replace seen i (Defs.Instr i);
              None)
      | _ -> None)
