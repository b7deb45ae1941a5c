(* Operations over basic blocks. *)

open Defs

type t = block

(* Blocks are mutable records created once per function: physical
   identity is the right notion (per-function ids would falsely equate
   blocks of different functions). *)
let equal (a : t) (b : t) = a == b
let name (b : t) = b.bname
let instrs (b : t) = b.instrs
let terminator (b : t) = b.term
let set_terminator (b : t) term = b.term <- term

let length (b : t) = List.length b.instrs

let iter f (b : t) = List.iter f b.instrs
let fold f acc (b : t) = List.fold_left f acc b.instrs

let mem (b : t) (i : instr) = List.exists (Instr.equal i) b.instrs

let append (b : t) (i : instr) =
  assert (i.iblock = None);
  i.iblock <- Some b;
  b.instrs <- b.instrs @ [ i ]

let insert_before (b : t) ~anchor (i : instr) =
  assert (i.iblock = None);
  let rec go = function
    | [] -> invalid_arg "Block.insert_before: anchor not in block"
    | x :: rest when Instr.equal x anchor -> i :: x :: rest
    | x :: rest -> x :: go rest
  in
  i.iblock <- Some b;
  b.instrs <- go b.instrs

let remove (b : t) (i : instr) =
  if not (mem b i) then invalid_arg "Block.remove: instruction not in block";
  b.instrs <- List.filter (fun x -> not (Instr.equal x i)) b.instrs;
  i.iblock <- None

(* Bulk discard for rewriting passes: one traversal detaches every
   instruction satisfying [pred] and retires its operand uses (a
   discarded instruction never executes again, unlike one merely
   {!remove}d for re-insertion elsewhere). *)
let discard_if (b : t) pred =
  let keep, dropped = List.partition (fun i -> not (pred i)) b.instrs in
  b.instrs <- keep;
  List.iter
    (fun (i : instr) ->
      i.iblock <- None;
      Use.unregister_all i)
    dropped

(* Replace the whole instruction order, e.g. after scheduling.  The new
   order must be a permutation of the current instructions. *)
let reorder (b : t) (order : instr list) =
  let same_set =
    List.length order = List.length b.instrs && List.for_all (mem b) order
  in
  if not same_set then invalid_arg "Block.reorder: not a permutation";
  b.instrs <- order

(* Position of an instruction in the block, used by dependence checks. *)
let index_of (b : t) (i : instr) =
  let rec go n = function
    | [] -> None
    | x :: _ when Instr.equal x i -> Some n
    | _ :: rest -> go (n + 1) rest
  in
  go 0 b.instrs

let successors (b : t) =
  match b.term with
  | Ret | Unterminated -> []
  | Br b1 -> [ b1 ]
  | Cond_br (_, b1, b2) -> if equal b1 b2 then [ b1 ] else [ b1; b2 ]
