(* Common subexpression elimination, block-local.

   Two pure instructions with the same opcode, type and operands
   compute the same value; the later one is replaced by the earlier.
   Loads are also unified when no may-aliasing store intervenes.  One
   forward sweep per block through the shared {!Rewrite} machinery,
   with available loads indexed by address, keeps the pass linear. *)

open Snslp_ir
open Snslp_analysis

let commutative (i : Defs.instr) =
  match i.Defs.op with
  | Defs.Binop b -> Defs.is_commutative b && Array.length i.Defs.ops = 2
  | _ -> false

(* Instructions keyed by what they compute: opcode, result type and
   operands by value identity ({!Value.equal}), the two operands of a
   commutative binop unordered so a+b meets b+a.  An instruction is
   its own key: the sweep rewrites only the operands of the users of
   the instruction it replaces, which follow it in its block or sit in
   other blocks (the tables are per block), so a key never changes
   while it is in a table. *)
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

  (* Operands by id and the opcode by a tag, mixed inline as
     [Int_table] mixes ids: the generic hash runs only for constant and
     undef operands.  The tag ignores the payloads [same_opcode]
     compares for alternating binops, shuffles and phis, which only
     coarsens it. *)
  let operand = function
    | Defs.Instr i -> i.Defs.iid
    | Defs.Arg a -> -1 - a.Defs.arg_pos
    | (Defs.Const _ | Defs.Undef _) as v -> Value.hash v

  let cmp = function Defs.Eq -> 0 | Defs.Ne -> 1 | Defs.Lt -> 2 | Defs.Le -> 3 | Defs.Gt -> 4 | Defs.Ge -> 5

  let opcode (i : Defs.instr) =
    match i.Defs.op with
    | Defs.Binop Defs.Add -> 0
    | Defs.Binop Defs.Sub -> 1
    | Defs.Binop Defs.Mul -> 2
    | Defs.Binop Defs.Div -> 3
    | Defs.Icmp c -> 4 + cmp c
    | Defs.Fcmp c -> 10 + cmp c
    | Defs.Alt_binop _ -> 16
    | Defs.Load -> 17
    | Defs.Store -> 18
    | Defs.Gep -> 19
    | Defs.Insert -> 20
    | Defs.Extract -> 21
    | Defs.Shuffle _ -> 22
    | Defs.Select -> 23
    | Defs.Phi _ -> 24

  let hash (i : Defs.instr) =
    let ops = i.Defs.ops in
    let h =
      if commutative i then operand ops.(0) + operand ops.(1)
      else Array.fold_left (fun h v -> (31 * h) + operand v) 0 ops
    in
    Int_table.hash ((31 * h) + opcode i)
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

(* The loads still available in the current block, indexed by where
   they read, so a store examines only the loads it may overwrite.
   Most bases are arguments, which never alias each other: a store to
   an argument examines the loads of its own argument, element type
   and symbolic index whose offsets come within reach, every load of
   that argument under another symbolic index, and every load from a
   base that is not an argument.  Whether a candidate dies is still
   decided by [Deps.may_overlap], so the loads killed are exactly
   those a scan of every available load would kill. *)
type entry = { load : Defs.instr; loc : Deps.memloc }

(* The available loads of one address class ({!Address.classes}) with
   an argument base, by constant offset. *)
type group = (int, entry list) Hashtbl.t

type index = {
  groups : group Address.Class_table.t; (* keyed by (address, 0) *)
  regions : (int, group list) Hashtbl.t; (* argument region -> its groups *)
  mutable elsewhere : entry list; (* loads whose base is not an argument *)
  mutable widest : int; (* the widest load indexed *)
}

(* An argument region, argument position and element type, as one
   int. *)
let arg_region (loc : Deps.memloc) =
  match loc.Deps.addr.Address.base with
  | Defs.Arg a ->
      let elem =
        match loc.Deps.addr.Address.elem with
        | Ty.I32 -> 0
        | Ty.I64 -> 1
        | Ty.F32 -> 2
        | Ty.F64 -> 3
      in
      Some ((a.Defs.arg_pos lsl 2) lor elem)
  | Defs.Instr _ | Defs.Const _ | Defs.Undef _ -> None

let offset (loc : Deps.memloc) = Address.offset loc.Deps.addr

let run (func : Defs.func) : int =
  (* Per-block value tables, reset on block entry (block-local CSE). *)
  let seen : Defs.value Computation.t = Computation.create 64 in
  let avail_loads : (Defs.instr * Deps.memloc) Computation.t = Computation.create 16 in
  let ix =
    {
      groups = Address.Class_table.create 16;
      regions = Hashtbl.create 8;
      elsewhere = [];
      widest = 1;
    }
  in
  let reset_loads () =
    Computation.reset avail_loads;
    Address.Class_table.reset ix.groups;
    Hashtbl.reset ix.regions;
    ix.elsewhere <- [];
    ix.widest <- 1
  in
  let add_load (load : Defs.instr) (loc : Deps.memloc) =
    Computation.replace avail_loads load (load, loc);
    let e = { load; loc } in
    ix.widest <- max ix.widest loc.Deps.width;
    match arg_region loc with
    | None -> ix.elsewhere <- e :: ix.elsewhere
    | Some region ->
        let key = (loc.Deps.addr, 0) in
        let group =
          match Address.Class_table.find_opt ix.groups key with
          | Some g -> g
          | None ->
              let g = Hashtbl.create 8 in
              Address.Class_table.replace ix.groups key g;
              let gs = Option.value ~default:[] (Hashtbl.find_opt ix.regions region) in
              Hashtbl.replace ix.regions region (g :: gs);
              g
        in
        let at = offset loc in
        Hashtbl.replace group at (e :: Option.value ~default:[] (Hashtbl.find_opt group at))
  in
  (* Drop the loads of [es] the store at [stl] may overwrite; the
     survivors. *)
  let kill stl es =
    List.filter
      (fun e ->
        if Deps.may_overlap stl e.loc then begin
          Computation.remove avail_loads e.load;
          false
        end
        else true)
      es
  in
  let kill_loads (st : Defs.instr) =
    match Deps.memloc_of_instr st with
    | None -> reset_loads ()
    | Some stl -> (
        match arg_region stl with
        | None ->
            Computation.filter_map_inplace
              (fun _ ((_, ldl) as e) -> if Deps.may_overlap stl ldl then None else Some e)
              avail_loads;
            let live = Computation.fold (fun _ (load, loc) acc -> (load, loc) :: acc) avail_loads [] in
            reset_loads ();
            List.iter (fun (load, loc) -> add_load load loc) live
        | Some region ->
            ix.elsewhere <- kill stl ix.elsewhere;
            let mine = Address.Class_table.find_opt ix.groups (stl.Deps.addr, 0) in
            List.iter
              (fun (group : group) ->
                if Option.fold ~none:false ~some:(fun g -> g == group) mine then begin
                  let c = offset stl in
                  for at = c - ix.widest + 1 to c + stl.Deps.width - 1 do
                    match Hashtbl.find_opt group at with
                    | Some es -> (
                        match kill stl es with
                        | [] -> Hashtbl.remove group at
                        | rest -> Hashtbl.replace group at rest)
                    | None -> ()
                  done
                end
                else
                  Hashtbl.filter_map_inplace
                    (fun _ es -> match kill stl es with [] -> None | rest -> Some rest)
                    group)
              (Option.value ~default:[] (Hashtbl.find_opt ix.regions region)))
  in
  let current_block = ref (-1) in
  Rewrite.run func (fun block i ->
      if block.Defs.bid <> !current_block then begin
        current_block := block.Defs.bid;
        Computation.reset seen;
        reset_loads ()
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
              (match Deps.memloc_of_instr i with Some loc -> add_load i loc | None -> ());
              None)
      | _ when pure i -> (
          match Computation.find_opt seen i with
          | Some earlier -> Some earlier
          | None ->
              Computation.replace seen i (Defs.Instr i);
              None)
      | _ -> None)
