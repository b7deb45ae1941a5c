(* Natural-loop analysis over the block CFG.

   A back edge is a CFG edge b -> h where h dominates b; its natural
   loop is h plus every block that reaches b without passing through h.
   Loops with the same header merge (one loop, several latches), and
   containment of headers induces the loop-nest forest.

   On top of the CFG-level forest sits the recognizer for *counted*
   loops — the canonical rotated form the KernelC frontend emits:

     preheader:  ...                ; init/bound computed here
                 br header
     header:     %iv  = phi [init from preheader, %next from latch]
                 %c   = icmp cmp %iv, bound
                 cond_br %c, body, exit
     body..latch: ...
                 %next = add %iv, step   ; step a non-zero constant
                 br header

   with the header as the only exiting block.  Loops that also have
   one phi in the whole loop and no value defined inside the loop used
   outside it (the [strict] ones) are the shape the unroll pass
   transforms; everything else is left alone (conservative, never
   wrong). *)

open Snslp_ir

module Int_set = Set.Make (Int)

type loop = {
  header : Defs.block;
  latches : Defs.block list; (* sources of back edges to [header] *)
  blocks : Defs.block list; (* the natural loop, in function block order *)
  block_ids : Int_set.t;
  hpreds : Defs.block list; (* the header's predecessors, found with the loop *)
  mutable parent : loop option;
  mutable children : loop list;
  mutable depth : int; (* 1 = top-level *)
}

type forest = {
  loops : loop list; (* every loop, outermost first within a nest *)
  roots : loop list; (* top-level loops *)
}

let mem (l : loop) (b : Defs.block) = Int_set.mem b.Defs.bid l.block_ids

let num_blocks (l : loop) = List.length l.blocks

let num_instrs (l : loop) =
  List.fold_left (fun n b -> n + Block.length b) 0 l.blocks

(* --- Detection. ---------------------------------------------------- *)

let analyze (f : Defs.func) : forest =
  let dom = Dominance.compute f in
  let preds = Dominance.predecessors f in
  (* Back edges, grouped by header. *)
  let latches_of : (int, Defs.block list) Hashtbl.t = Hashtbl.create 4 in
  let headers = ref [] in
  List.iter
    (fun b ->
      List.iter
        (fun s ->
          if Dominance.dominates dom s b then begin
            if not (Hashtbl.mem latches_of s.Defs.bid) then headers := s :: !headers;
            Hashtbl.replace latches_of s.Defs.bid
              (b :: (try Hashtbl.find latches_of s.Defs.bid with Not_found -> []))
          end)
        (Block.successors b))
    f.Defs.blocks;
  (* Natural loop of a header: reverse reachability from the latches,
     stopping at the header. *)
  let body_of (header : Defs.block) (latches : Defs.block list) =
    let ids = ref (Int_set.singleton header.Defs.bid) in
    let rec pull (b : Defs.block) =
      if not (Int_set.mem b.Defs.bid !ids) then begin
        ids := Int_set.add b.Defs.bid !ids;
        List.iter pull (try Hashtbl.find preds b.Defs.bid with Not_found -> [])
      end
    in
    List.iter pull latches;
    !ids
  in
  (* A loop's blocks in function block order, from the positions of
     its own blocks rather than a filter over the whole function. *)
  let position = Hashtbl.create 64 in
  List.iteri (fun k (b : Defs.block) -> Hashtbl.replace position b.Defs.bid (k, b)) f.Defs.blocks;
  let in_order ids =
    Int_set.fold
      (fun bid acc -> match Hashtbl.find_opt position bid with Some kb -> kb :: acc | None -> acc)
      ids []
    |> List.sort (fun (i, _) (j, _) -> Int.compare i j)
    |> List.map snd
  in
  let loops =
    List.rev_map
      (fun (header : Defs.block) ->
        let latches = Hashtbl.find latches_of header.Defs.bid in
        let block_ids = body_of header latches in
        let blocks = in_order block_ids in
        let hpreds = try Hashtbl.find preds header.Defs.bid with Not_found -> [] in
        { header; latches; blocks; block_ids; hpreds; parent = None; children = []; depth = 1 })
      !headers
  in
  (* Nesting: the parent of [l] is the smallest other loop containing
     l's header.  Natural loops either nest or are disjoint, so block
     count orders candidates correctly.  Candidates are found from the
     loops' own blocks, in [loops] order. *)
  let by_header = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace by_header l.header.Defs.bid l) loops;
  let containing = Hashtbl.create 16 in
  List.iteri
    (fun k o ->
      Int_set.iter
        (fun bid ->
          match Hashtbl.find_opt by_header bid with
          | Some l when l != o ->
              Hashtbl.replace containing bid
                ((k, o) :: Option.value ~default:[] (Hashtbl.find_opt containing bid))
          | Some _ | None -> ())
        o.block_ids)
    loops;
  List.iter
    (fun l ->
      let candidates =
        Option.value ~default:[] (Hashtbl.find_opt containing l.header.Defs.bid)
        |> List.sort (fun (i, _) (j, _) -> Int.compare i j)
        |> List.map snd
        |> List.sort (fun a b -> compare (num_blocks a) (num_blocks b))
      in
      match candidates with
      | p :: _ ->
          l.parent <- Some p;
          p.children <- l :: p.children
      | [] -> ())
    loops;
  let rec set_depth d l =
    l.depth <- d;
    List.iter (set_depth (d + 1)) l.children
  in
  let roots = List.filter (fun l -> l.parent = None) loops in
  List.iter (set_depth 1) roots;
  { loops; roots }

(* --- Counted-loop recognition. ------------------------------------- *)

type counted = {
  loop : loop;
  preheader : Defs.block; (* unique outside predecessor; ends in [Br header] *)
  latch : Defs.block; (* the single back-edge source *)
  body_entry : Defs.block; (* taken target of the header's cond_br *)
  exit : Defs.block; (* fall-through target, outside the loop *)
  iv : Defs.instr; (* the induction-variable phi *)
  init : Defs.value; (* incoming from the preheader *)
  next : Defs.instr; (* add/sub of [iv] by [step], incoming from the latch *)
  step : int64; (* signed; never 0 *)
  cmp : Defs.cmp; (* continue while [iv cmp bound] *)
  cond : Defs.instr; (* the header icmp *)
  bound : Defs.value; (* loop-invariant right-hand side *)
}

let value_invariant (l : loop) (v : Defs.value) =
  match v with
  | Defs.Const _ | Defs.Arg _ | Defs.Undef _ -> true
  | Defs.Instr i -> (
      match i.Defs.iblock with Some b -> not (mem l b) | None -> false)

(* Every use of every instruction defined in the loop must stay inside
   the loop: full unroll deletes the original blocks wholesale and
   partial unroll renumbers iterations, so an escaping value would
   dangle. *)
let no_outside_uses (l : loop) =
  List.for_all
    (fun (b : Defs.block) ->
      Block.fold
        (fun ok (i : Defs.instr) ->
          ok
          && not
               (Use.exists
                  (fun (user : Defs.instr) _ ->
                    match user.Defs.iblock with Some ub -> not (mem l ub) | None -> false)
                  i))
        true b)
    l.blocks

(* [recognize l] — the one counted-loop recognizer.  The shape checks
   run once, in order, and the first that fails names the unsupported
   feature, so an [Unknown] verdict downstream is actionable.  A loop
   that passes them is executable by a symbolic interpreter; [strict]
   then says whether it also meets what only the transforms need:
   innermost, a [Br]-terminated preheader (unroll retargets that
   edge), an icmp feeding only the branch, one phi in the whole loop,
   a phi-free exit, no value used outside the loop, and a single-step
   increment (partial unroll leaves a chain of constant adds through
   the body copies, [(iv+s)+s]..., which is folded back to one step
   here but is not itself unrollable). *)
let recognize (l : loop) : (counted * bool, string) result =
  let ( let* ) r k = match r with Ok v -> k v | Error _ as e -> e in
  let* latch =
    match l.latches with
    | [ x ] -> Ok x
    | xs -> Error (Printf.sprintf "multiple back edges (%d latches)" (List.length xs))
  in
  let* () = if Block.equal l.header latch then Error "self-loop header" else Ok () in
  (* Header predecessors: exactly the preheader (outside) and the
     latch. *)
  let hpreds = l.hpreds in
  let* preheader =
    match List.filter (fun b -> not (mem l b)) hpreds with
    | [ p ] when List.length hpreds = 2 -> Ok p
    | [] -> Error "no predecessor outside the loop"
    | _ -> Error "no unique preheader"
  in
  (* Header shape: [iv-phi; icmp] and a conditional branch into the
     body (taken) or out of the loop (fall-through).  Anything else in
     the header would execute once more than the body — unrolling
     would drop that execution. *)
  let* iv, cond =
    match Block.instrs l.header with
    | [ p; c ] when Instr.is_phi p -> Ok (p, c)
    | p :: _ when not (Instr.is_phi p) -> Error "header does not start with an induction phi"
    | _ -> Error "header is not the canonical [iv-phi; icmp] shape"
  in
  let* cmp =
    match cond.Defs.op with
    | Defs.Icmp cmp -> Ok cmp
    | _ -> Error "header condition is not an integer compare"
  in
  let* () =
    match cond.Defs.ops with
    | [| Defs.Instr i; _ |] when Instr.equal i iv -> Ok ()
    | _ -> Error "compare left-hand side is not the induction variable"
  in
  let bound = cond.Defs.ops.(1) in
  let* () = if value_invariant l bound then Ok () else Error "loop-variant bound" in
  let* body_entry, exit =
    match l.header.Defs.term with
    | Defs.Cond_br (Defs.Instr c, t, e)
      when Instr.equal c cond && mem l t && (not (mem l e)) && not (Block.equal t l.header) ->
        Ok (t, e)
    | Defs.Cond_br _ -> Error "header branch does not split into body and exit"
    | _ -> Error "header does not exit the loop (bottom-tested or irregular form)"
  in
  let* () =
    if
      List.for_all
        (fun (b : Defs.block) ->
          Block.equal b l.header || List.for_all (mem l) (Block.successors b))
        l.blocks
    then Ok ()
    else Error "multi-exit loop"
  in
  (* The iv recurrence: init from the preheader, iv +/- constant from
     the latch. *)
  let* init, next_v =
    match iv.Defs.op with
    | Defs.Phi payload when Array.length payload = 2 ->
        if payload.(0) = preheader.Defs.bid && payload.(1) = latch.Defs.bid then
          Ok (iv.Defs.ops.(0), iv.Defs.ops.(1))
        else if payload.(0) = latch.Defs.bid && payload.(1) = preheader.Defs.bid then
          Ok (iv.Defs.ops.(1), iv.Defs.ops.(0))
        else Error "induction phi incoming blocks match neither preheader nor latch"
    | _ -> Error "induction phi arity is not 2"
  in
  let* next =
    match Value.as_instr next_v with
    | Some n -> Ok n
    | None -> Error "back-edge value is not an instruction"
  in
  let* () =
    if Ty.scalar_is_int (Ty.elem iv.Defs.ty) then Ok () else Error "non-integer induction variable"
  in
  let* step =
    let rec chase (i : Defs.instr) acc depth =
      if depth > 8 then Error "non-affine induction step"
      else
        match (i.Defs.op, i.Defs.ops) with
        | Defs.Binop Defs.Add, [| Defs.Instr j; Defs.Const { lit = Lit.Int s; _ } |] ->
            let acc = Int64.add acc s in
            if Instr.equal j iv then Ok acc else chase j acc (depth + 1)
        | Defs.Binop Defs.Sub, [| Defs.Instr j; Defs.Const { lit = Lit.Int s; _ } |] ->
            let acc = Int64.sub acc s in
            if Instr.equal j iv then Ok acc else chase j acc (depth + 1)
        | _ -> Error "non-affine induction step"
    in
    chase next 0L 0
  in
  let* () = if Int64.equal step 0L then Error "zero induction step" else Ok () in
  let no_other_phi (b : Defs.block) =
    Block.fold (fun ok (i : Defs.instr) -> ok && (Instr.equal i iv || not (Instr.is_phi i))) true b
  in
  let strict =
    l.children = []
    && (match preheader.Defs.term with Defs.Br b -> Block.equal b l.header | _ -> false)
    && (not (Use.exists (fun (u : Defs.instr) _ -> u.Defs.iblock <> None) cond))
    && List.for_all no_other_phi l.blocks
    && no_other_phi exit
    && no_outside_uses l
    && match next.Defs.ops.(0) with Defs.Instr j -> Instr.equal j iv | _ -> false
  in
  Ok ({ loop = l; preheader; latch; body_entry; exit; iv; init; next; step; cmp; cond; bound }, strict)

let as_counted (l : loop) = match recognize l with Ok (c, true) -> Some c | _ -> None

(* --- Trip counts. -------------------------------------------------- *)

let trip_count_cap = 1 lsl 20

(* [trip_count c] — the number of body executions, when init and bound
   are integer constants.  Computed by stepping the recurrence with
   the interpreter's wraparound semantics, so it is exact even across
   Int64 overflow; loops that do not settle within [trip_count_cap]
   iterations (runaway or effectively infinite) return [None]. *)
let trip_count (c : counted) : int option =
  match (c.init, c.bound) with
  | Defs.Const { lit = Lit.Int init; _ }, Defs.Const { lit = Lit.Int bound; _ } ->
      let rec go iv n =
        if n > trip_count_cap then None
        else if Arith.cmp_int c.cmp iv bound then go (Int64.add iv c.step) (n + 1)
        else Some n
      in
      go init 0
  | _ -> None

(* [monotone c] — the step strictly approaches the bound's failure
   side: Lt/Le with a positive step or Gt/Ge with a negative one.
   This is what partial unroll needs for its adjusted-bound guard
   [iv cmp (bound - (F-1)*step)] to dominate iterations iv..iv+(F-1)*step. *)
let monotone (c : counted) =
  match c.cmp with
  | Defs.Lt | Defs.Le -> Int64.compare c.step 0L > 0
  | Defs.Gt | Defs.Ge -> Int64.compare c.step 0L < 0
  | Defs.Eq | Defs.Ne -> false

(* --- Region cloning. ----------------------------------------------- *)

(* [clone_region f blocks ~suffix ~map_value] clones an ordered subset
   of [f]'s blocks into fresh blocks appended to [f].

   Operands resolving to instructions of the region map to their
   clones; every other operand goes through [map_value] (identity by
   default) — the substitution hook unrolling uses to replace the iv.
   Branch targets inside the region are redirected to the clones,
   targets outside are kept; phi payloads are remapped the same way.
   Two passes, because a phi's back-edge operand references an
   instruction cloned later.

   Returns the (old bid -> clone) block map and the (old iid -> clone)
   instruction map. *)
let clone_region (f : Defs.func) (blocks : Defs.block list) ~(suffix : string)
    ?(map_value : Defs.value -> Defs.value = fun v -> v) ?into () :
    (int, Defs.block) Hashtbl.t * (int, Defs.instr) Hashtbl.t =
  let bmap : (int, Defs.block) Hashtbl.t = Hashtbl.create 8 in
  let imap : (int, Defs.instr) Hashtbl.t = Hashtbl.create 32 in
  let created = ref [] in
  (* Pass 1: block and instruction shells (operands come in pass 2,
     once every clone exists). *)
  List.iter
    (fun (b : Defs.block) ->
      let b' = Func.fresh_block f (b.Defs.bname ^ suffix) in
      created := b' :: !created;
      Hashtbl.replace bmap b.Defs.bid b';
      Block.iter
        (fun (i : Defs.instr) ->
          let i' =
            Func.fresh_instr f ~name:(i.Defs.iname ^ suffix) i.Defs.op i.Defs.ty [||]
          in
          Hashtbl.replace imap i.Defs.iid i';
          Block.append b' i')
        b)
    blocks;
  let map_block (b : Defs.block) =
    match Hashtbl.find_opt bmap b.Defs.bid with Some b' -> b' | None -> b
  in
  let map_op (v : Defs.value) =
    match v with
    | Defs.Instr i -> (
        match Hashtbl.find_opt imap i.Defs.iid with
        | Some i' -> Defs.Instr i'
        | None -> map_value v)
    | v -> map_value v
  in
  (* Pass 2: operands, phi payloads, terminators. *)
  List.iter
    (fun (b : Defs.block) ->
      let b' = Hashtbl.find bmap b.Defs.bid in
      Block.iter
        (fun (i : Defs.instr) ->
          let i' = Hashtbl.find imap i.Defs.iid in
          (match i.Defs.op with
          | Defs.Phi payload ->
              i'.Defs.op <-
                Defs.Phi
                  (Array.map
                     (fun bid ->
                       match Hashtbl.find_opt bmap bid with
                       | Some nb -> nb.Defs.bid
                       | None -> bid)
                     payload)
          | _ -> ());
          i'.Defs.ops <- Array.map map_op i.Defs.ops;
          Use.register_all i')
        b;
      b'.Defs.term <-
        (match b.Defs.term with
        | Defs.Ret -> Defs.Ret
        | Defs.Unterminated -> Defs.Unterminated
        | Defs.Br t -> Defs.Br (map_block t)
        | Defs.Cond_br (c, t, e) -> Defs.Cond_br (map_op c, map_block t, map_block e)))
    blocks;
  (match into with
  | Some pending -> pending := !created @ !pending
  | None -> f.Defs.blocks <- f.Defs.blocks @ List.rev !created);
  (bmap, imap)
