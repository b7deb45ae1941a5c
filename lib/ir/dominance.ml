(* Dominator computation over the block CFG.

   When every block is reachable from the entry, the dominator tree
   comes from Cooper-Harvey-Kennedy and queries are O(1) interval
   tests, so large CFGs (deep nesting, many loops) stay near-linear.
   Otherwise the standard iterative data-flow formulation runs:
   dom(entry) = {entry}, dom(b) = {b} ∪ ⋂ dom(preds).  Used by the
   verifier to check that every definition dominates its uses. *)

open Defs

module Int_set = Set.Make (Int)

(* Either dominator-tree intervals (every block reachable: the common
   case, answered in O(1)), or the dominator sets of the iterative
   formulation, whose treatment of unreachable blocks (and of reachable
   blocks with unreachable predecessors) the checks rely on. *)
type t =
  | Tree of { pre : int array; post : int array } (* by block id; -1: not in the function *)
  | Sets of (int, Int_set.t) Hashtbl.t (* block id -> dominator block ids *)

let predecessors (f : func) =
  let preds : (int, block list) Hashtbl.t = Hashtbl.create 7 in
  List.iter (fun b -> Hashtbl.replace preds b.bid []) f.blocks;
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          let cur = try Hashtbl.find preds s.bid with Not_found -> [] in
          if not (List.exists (Block.equal b) cur) then Hashtbl.replace preds s.bid (b :: cur))
        (Block.successors b))
    f.blocks;
  preds

(* The successor [t] of a merged block has [s] among its phi payloads
   and predecessors; both name [b] from now on.  Payloads get fresh
   arrays: they are never mutated in place. *)
let absorb preds (b : block) (s : block) =
  Block.iter
    (fun i ->
      Block.remove s i;
      Block.append b i)
    s;
  b.term <- s.term;
  List.iter
    (fun (t : block) ->
      Block.iter
        (fun i ->
          match i.op with
          | Phi payload when Array.exists (Int.equal s.bid) payload ->
              i.op <- Phi (Array.map (fun bid -> if bid = s.bid then b.bid else bid) payload)
          | _ -> ())
        t;
      match Hashtbl.find_opt preds t.bid with
      | Some ps -> Hashtbl.replace preds t.bid (List.map (fun p -> if Block.equal p s then b else p) ps)
      | None -> ())
    (Block.successors b)

let sets (f : func) preds =
  let all = List.fold_left (fun s b -> Int_set.add b.bid s) Int_set.empty f.blocks in
  let doms = Hashtbl.create 7 in
  let entry = Func.entry f in
  List.iter
    (fun b ->
      if Block.equal b entry then Hashtbl.replace doms b.bid (Int_set.singleton b.bid)
      else Hashtbl.replace doms b.bid all)
    f.blocks;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if not (Block.equal b entry) then begin
          let pred_doms =
            match Hashtbl.find preds b.bid with
            | [] -> Int_set.singleton b.bid (* unreachable: conservative *)
            | p :: rest ->
                List.fold_left
                  (fun acc q -> Int_set.inter acc (Hashtbl.find doms q.bid))
                  (Hashtbl.find doms p.bid) rest
          in
          let d = Int_set.add b.bid pred_doms in
          if not (Int_set.equal d (Hashtbl.find doms b.bid)) then begin
            Hashtbl.replace doms b.bid d;
            changed := true
          end
        end)
      f.blocks
  done;
  Sets doms

(* Cooper, Harvey and Kennedy, "A Simple, Fast Dominance Algorithm"
   (2001): immediate dominators by intersecting along reverse
   postorder, then a depth-first numbering of the dominator tree, so
   "a dominates b" is an interval test. *)
let tree (f : func) preds (rpo : block array) =
  let n = Array.length rpo in
  let index = Hashtbl.create n in
  Array.iteri (fun k b -> Hashtbl.replace index b.bid k) rpo;
  let idom = Array.make n (-1) in
  idom.(0) <- 0;
  let rec intersect a b =
    if a = b then a else if a > b then intersect idom.(a) b else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    for k = 1 to n - 1 do
      let ps = Hashtbl.find preds rpo.(k).bid in
      let d =
        List.fold_left
          (fun d (p : block) ->
            let q = Hashtbl.find index p.bid in
            if idom.(q) < 0 then d else if d < 0 then q else intersect q d)
          (-1) ps
      in
      if d <> idom.(k) then begin
        idom.(k) <- d;
        changed := true
      end
    done
  done;
  let children = Array.make n [] in
  for k = n - 1 downto 1 do
    children.(idom.(k)) <- k :: children.(idom.(k))
  done;
  let pre = Array.make f.next_bid (-1) and post = Array.make f.next_bid (-1) in
  let clock = ref 0 in
  let rec number k =
    pre.(rpo.(k).bid) <- !clock;
    incr clock;
    List.iter number children.(k);
    post.(rpo.(k).bid) <- !clock;
    incr clock
  in
  number 0;
  Tree { pre; post }

let compute (f : func) : t =
  let preds = predecessors f in
  let entry = Func.entry f in
  (* Reverse postorder of the blocks reachable from the entry. *)
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  let rec visit (b : block) =
    if not (Hashtbl.mem seen b.bid) then begin
      Hashtbl.replace seen b.bid ();
      List.iter visit (Block.successors b);
      order := b :: !order
    end
  in
  visit entry;
  (* The tree needs every block reachable, and nothing reachable that
     is not one of the function's blocks. *)
  let members = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace members b.bid b) f.blocks;
  let order = Array.of_list !order in
  let is_member (b : block) =
    b.bid >= 0 && b.bid < f.next_bid
    && match Hashtbl.find_opt members b.bid with Some m -> m == b | None -> false
  in
  if Array.length order = List.length f.blocks && Array.for_all is_member order then
    tree f preds order
  else sets f preds

(* [dominates t a b] holds when block [a] dominates block [b]. *)
let dominates (t : t) (a : block) (b : block) =
  match t with
  | Sets doms -> (
      match Hashtbl.find_opt doms b.bid with Some s -> Int_set.mem a.bid s | None -> false)
  | Tree { pre; post } ->
      let ok (x : block) = x.bid >= 0 && x.bid < Array.length pre && pre.(x.bid) >= 0 in
      ok a && ok b && pre.(a.bid) <= pre.(b.bid) && post.(b.bid) <= post.(a.bid)
