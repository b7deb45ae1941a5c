(* Operations over basic blocks.

   A block's instructions form an intrusive doubly-linked list
   ([Defs.instr.iprev]/[inext], from [bhead] to [btail]), so append,
   insert, remove and membership are O(1).  Every attached instruction
   carries an order key ([iorder]) that increases strictly along the
   block, which answers "does [a] come before [b]" in O(1).

   Keys live in [0, key_top).  Appends step by [key_gap], and an
   insertion takes the midpoint of its neighbours' keys.  When the
   neighbours leave no gap, the block renumbers the smallest aligned
   key range around the insertion point that is sparse enough (the
   order-maintenance relabelling of Bender et al., "Two simplified
   algorithms for maintaining order in a list", 2002): a range of
   [2^i] keys is used once it holds at most [(4/3)^i] instructions,
   the whole key space at worst.  That keeps renumbering amortised
   O(log n) per insertion even when every insertion lands on the same
   spot. *)

open Defs

type t = block

(* Blocks are mutable records created once per function: physical
   identity is the right notion (per-function ids would falsely equate
   blocks of different functions). *)
let equal (a : t) (b : t) = a == b
let name (b : t) = b.bname
let terminator (b : t) = b.term
let set_terminator (b : t) term = b.term <- term
let length (b : t) = b.blen
let stamp (b : t) = b.bstamp
let first (b : t) = b.bhead
let last (b : t) = b.btail

(* The successor is read before [f] runs, so [f] may remove the
   instruction it is given. *)
let iter f (b : t) =
  let rec go = function
    | None -> ()
    | Some i ->
        let rest = i.inext in
        f i;
        go rest
  in
  go b.bhead

let fold f acc (b : t) =
  let rec go acc = function
    | None -> acc
    | Some i ->
        let rest = i.inext in
        go (f acc i) rest
  in
  go acc b.bhead

let instrs (b : t) =
  let rec go acc = function None -> acc | Some i -> go (i :: acc) i.iprev in
  go [] b.btail

let to_array (b : t) =
  match b.bhead with
  | None -> [||]
  | Some h ->
      let a = Array.make b.blen h in
      let rec go k = function
        | None -> ()
        | Some i ->
            a.(k) <- i;
            go (k + 1) i.inext
      in
      go 0 b.bhead;
      a

let mem (b : t) (i : instr) = match i.iblock with Some b' -> b' == b | None -> false
let precedes (a : instr) (b : instr) = a.iorder < b.iorder

(* --- Order keys ---------------------------------------------------------- *)

let key_top = 1 lsl 61
let key_gap = 1 lsl 20

(* Keys [key], [key + step], ... along the run [first..last]. *)
let rec spread (i : instr) (last : instr) key step =
  i.iorder <- key;
  if i != last then
    match i.inext with Some n -> spread n last (key + step) step | None -> ()

(* The run [first..last] of [k] keyless instructions sits where its
   neighbours' keys leave no room: grow an aligned key range around
   the neighbour until it is sparse enough, then spread its
   instructions, the run included, evenly over it. *)
let relabel (first : instr) (last : instr) k =
  let r =
    match (first.iprev, last.inext) with
    | Some p, _ -> p.iorder
    | None, Some n -> n.iorder
    | None, None -> 0
  in
  let left = ref first and right = ref last and count = ref k in
  let size = ref 1 and lo = ref r and limit = ref 1.0 in
  let sparse = ref false in
  while not !sparse do
    size := 2 * !size;
    lo := r land lnot (!size - 1);
    limit := !limit *. (2. /. 3.);
    let rec grow_left () =
      match !left.iprev with
      | Some p when p.iorder >= !lo ->
          left := p;
          incr count;
          grow_left ()
      | _ -> ()
    in
    let rec grow_right () =
      match !right.inext with
      | Some n when n.iorder < !lo + !size ->
          right := n;
          incr count;
          grow_right ()
      | _ -> ()
    in
    grow_left ();
    grow_right ();
    sparse := !size >= key_top || float_of_int !count <= float_of_int !size *. !limit
  done;
  let step = !size / !count in
  spread !left !right (!lo + (step / 2)) step

(* Give the freshly linked run [first..last] of [k] instructions keys
   between its neighbours'. *)
let place (first : instr) (last : instr) k =
  let lo = match first.iprev with Some p -> p.iorder | None -> -1 in
  match last.inext with
  | None when lo + (k * key_gap) < key_top -> spread first last (lo + key_gap) key_gap
  | next ->
      let hi = match next with Some n -> n.iorder | None -> key_top in
      let step = (hi - lo) / (k + 1) in
      if step >= 1 then spread first last (lo + step) step else relabel first last k

(* --- Linking ------------------------------------------------------------- *)

let link (b : t) (i : instr) ~prev ~next =
  i.iblock <- b.bsome;
  i.iprev <- prev;
  i.inext <- next;
  let si = Some i in
  (match prev with Some p -> p.inext <- si | None -> b.bhead <- si);
  (match next with Some n -> n.iprev <- si | None -> b.btail <- si);
  b.blen <- b.blen + 1;
  b.bstamp <- b.bstamp + 1

(* Unlinking leaves [iorder] alone: a removed instruction keeps the key
   it last had. *)
let unlink (b : t) (i : instr) =
  (match i.iprev with Some p -> p.inext <- i.inext | None -> b.bhead <- i.inext);
  (match i.inext with Some n -> n.iprev <- i.iprev | None -> b.btail <- i.iprev);
  i.iprev <- None;
  i.inext <- None;
  i.iblock <- None;
  b.blen <- b.blen - 1;
  b.bstamp <- b.bstamp + 1

let append (b : t) (i : instr) =
  assert (i.iblock = None);
  link b i ~prev:b.btail ~next:None;
  place i i 1

let insert_before (b : t) ~anchor (i : instr) =
  if not (mem b anchor) then invalid_arg "Block.insert_before: anchor not in block";
  assert (i.iblock = None);
  let at = match anchor.iprev with Some p -> p.inext | None -> b.bhead in
  link b i ~prev:anchor.iprev ~next:at;
  place i i 1

let remove (b : t) (i : instr) =
  if not (mem b i) then invalid_arg "Block.remove: instruction not in block";
  unlink b i

(* Bulk discard for rewriting passes: one traversal detaches every
   instruction satisfying [pred] and retires its operand uses (a
   discarded instruction never executes again, unlike one merely
   {!remove}d for re-insertion elsewhere). *)
let discard_if (b : t) pred =
  iter
    (fun i ->
      if pred i then begin
        unlink b i;
        Use.unregister_all i
      end)
    b

(* Move [order] — distinct members of [b], in the order given — to sit
   just before [before] (at the end when [None]).  Everything is
   checked before anything moves. *)
let relink (b : t) ?before (order : instr list) =
  let moved = Int_table.create 16 in
  List.iter
    (fun (i : instr) ->
      if not (mem b i) then invalid_arg "Block.relink: instruction not in block";
      if Int_table.mem moved i.iid then invalid_arg "Block.relink: instruction listed twice";
      Int_table.replace moved i.iid ())
    order;
  (match before with
  | Some a when (not (mem b a)) || Int_table.mem moved a.iid ->
      invalid_arg "Block.relink: anchor not in block or moved"
  | Some _ | None -> ());
  match order with
  | [] -> ()
  | first :: _ ->
      List.iter (unlink b) order;
      let last =
        List.fold_left
          (fun _ i ->
            let prev = match before with Some a -> a.iprev | None -> b.btail in
            link b i ~prev ~next:before;
            i)
          first order
      in
      place first last (List.length order)

(* Replace the whole instruction order.  The new order must list every
   instruction of the block exactly once. *)
let reorder (b : t) (order : instr list) =
  let fail () = invalid_arg "Block.reorder: not a permutation" in
  if List.length order <> b.blen then fail ();
  try relink b order with Invalid_argument _ -> fail ()

let successors (b : t) =
  match b.term with
  | Ret | Unterminated -> []
  | Br b1 -> [ b1 ]
  | Cond_br (_, b1, b2) -> if equal b1 b2 then [ b1 ] else [ b1; b2 ]
