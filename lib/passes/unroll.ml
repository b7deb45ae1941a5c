(* Loop unrolling over counted loops (see {!Snslp_loops.Loops}).

   Two transforms, picked per loop by the policy:

   - *Full unroll*, when the trip count n is a known constant and
     n * body-size fits the size budget: the body region is cloned n
     times with the induction variable substituted by the constant
     init + k*step, the copies are chained preheader -> copy_0 -> ...
     -> copy_{n-1} -> exit, and the original loop (header included) is
     deleted.  No phi survives, so the translation validator's
     symbolic executor covers the result end to end.

   - *Partial unroll* by factor F with an epilogue, otherwise (and
     only for monotone loops — Lt/Le with positive step or Gt/Ge with
     negative): the header guard becomes iv cmp (bound - (F-1)*step),
     the body is cloned F-1 more times inside the loop with
     iv_j = iv + j*step computed up front, the back edge advances by
     F*step, and a clone of the *original* loop runs the remaining
     iterations.  Every iteration executes the same instructions in
     the same order as before, so the rewrite is exact for floats and
     memory traps alike.

   Arithmetic caveat, stated once: with a symbolic bound the adjusted
   guard assumes bound - (F-1)*step does not wrap (KernelC inherits
   C's signed-overflow-is-UB contract).  With a constant bound the
   subtraction is checked and the loop is skipped on overflow. *)

open Snslp_ir
open Snslp_loops
module Config = Snslp_vectorizer.Config

type report = {
  loops : int; (* natural loops in the function *)
  counted : int; (* of which recognized as counted *)
  full : int; (* fully unrolled (loop deleted) *)
  partial : int; (* partially unrolled (epilogue loop remains) *)
}

(* The instruction count a full unroll may expand to, and the code
   growth speculative partial unrolling under [Unroll_auto] may cause;
   [Unroll_auto] unrolls partially by [auto_factor]. *)
let full_budget = 256
let auto_factor = 4

(* Overflow-checked Int64 helpers: partial unroll must not manufacture
   a wrapped guard bound. *)
let mul_checked a b =
  if Int64.equal a 0L || Int64.equal b 0L then Some 0L
  else
    let m = Int64.mul a b in
    if Int64.equal (Int64.div m a) b && not (Int64.equal a Int64.min_int && Int64.equal b (-1L))
    then Some m
    else None

let sub_checked a b =
  let r = Int64.sub a b in
  (* Overflow iff the operands have different signs and the result's
     sign differs from the minuend's. *)
  if Int64.compare (Int64.logxor a b) 0L < 0 && Int64.compare (Int64.logxor a r) 0L < 0
  then None
  else Some r

let const_iv (c : Loops.counted) (v : int64) =
  Value.const_of_lit c.Loops.iv.Defs.ty (Lit.int64 v)

(* Insert a detached instruction at the head of a block. *)
let insert_at_head (b : Defs.block) (i : Defs.instr) =
  match Block.first b with
  | None -> Block.append b i
  | Some first -> Block.insert_before b ~anchor:first i

(* Retarget one payload slot of a phi: fresh payload array (shared
   arrays are never mutated in place) plus the matching operand. *)
let retarget_phi (phi : Defs.instr) ~(from_bid : int) ~(to_bid : int)
    (new_op : Defs.value option) =
  match phi.Defs.op with
  | Defs.Phi payload ->
      let payload' = Array.copy payload in
      Array.iteri
        (fun k bid ->
          if bid = from_bid then begin
            payload'.(k) <- to_bid;
            match new_op with Some v -> Instr.set_operand phi k v | None -> ()
          end)
        payload;
      phi.Defs.op <- Defs.Phi payload'
  | _ -> invalid_arg "retarget_phi: not a phi"

(* --- Full unroll. -------------------------------------------------- *)

let unroll_full (f : Defs.func) ~into (c : Loops.counted) (n : int) =
  let region =
    List.filter (fun b -> not (Block.equal b c.Loops.loop.Loops.header)) c.Loops.loop.Loops.blocks
  in
  let init =
    match c.Loops.init with
    | Defs.Const { lit = Lit.Int i; _ } -> i
    | _ -> invalid_arg "unroll_full: non-constant init"
  in
  (* Clone the body once per iteration, substituting the iv by its
     value for that iteration. *)
  let copies =
    List.init n (fun k ->
        let iv_k = const_iv c Int64.(add init (mul (of_int k) c.Loops.step)) in
        let map_value v =
          match v with
          | Defs.Instr i when Instr.equal i c.Loops.iv -> iv_k
          | v -> v
        in
        let bmap, _ =
          Loops.clone_region f region ~suffix:(Printf.sprintf "_u%d" k) ~map_value ~into ()
        in
        ( Hashtbl.find bmap c.Loops.body_entry.Defs.bid,
          Hashtbl.find bmap c.Loops.latch.Defs.bid ))
  in
  (* Chain: preheader -> copy_0 -> ... -> copy_{n-1} -> exit. *)
  let rec chain = function
    | [] -> ()
    | [ (_, last_latch) ] -> last_latch.Defs.term <- Defs.Br c.Loops.exit
    | (_, l0) :: ((e1, _) :: _ as rest) ->
        l0.Defs.term <- Defs.Br e1;
        chain rest
  in
  chain copies;
  c.Loops.preheader.Defs.term <-
    (match copies with
    | (e0, _) :: _ -> Defs.Br e0
    | [] -> Defs.Br c.Loops.exit);
  (* Delete the original loop.  Every use of a loop-defined value is
     inside the loop (checked by the recognizer), so discarding the
     blocks wholesale leaves no dangling use entries; [run] drops them
     from the block list. *)
  List.iter (fun b -> Block.discard_if b (fun _ -> true)) c.Loops.loop.Loops.blocks

(* --- Partial unroll with an epilogue. ------------------------------ *)

(* The adjusted guard bound, or [None] when it cannot be built safely:
   delta = (F-1)*step must not wrap, and neither must bound - delta
   when the bound is a known constant. *)
let adjusted_bound_ok (c : Loops.counted) (factor : int) =
  match mul_checked (Int64.of_int (factor - 1)) c.Loops.step with
  | None -> None
  | Some delta -> (
      match c.Loops.bound with
      | Defs.Const { lit = Lit.Int b; _ } -> (
          match sub_checked b delta with
          | Some b' -> Some (`Const b')
          | None -> None)
      | _ -> Some (`Symbolic delta))

let unroll_partial (f : Defs.func) ~into (c : Loops.counted) (factor : int) adjusted =
  let header = c.Loops.loop.Loops.header in
  let region =
    List.filter (fun b -> not (Block.equal b header)) c.Loops.loop.Loops.blocks
  in
  (* 1. Epilogue: a clone of the whole loop that runs the remaining
     iterations, entered on the main loop's exit edge and starting
     from the main loop's current iv.  Cloned first, before the guard
     bound and the exit edge are touched. *)
  let ebmap, eimap =
    Loops.clone_region f c.Loops.loop.Loops.blocks ~suffix:"_epi" ~into ()
  in
  let epi_header = Hashtbl.find ebmap header.Defs.bid in
  let epi_phi = Hashtbl.find eimap c.Loops.iv.Defs.iid in
  retarget_phi epi_phi ~from_bid:c.Loops.preheader.Defs.bid ~to_bid:header.Defs.bid
    (Some (Defs.Instr c.Loops.iv));
  (* 2. The main loop now exits into the epilogue. *)
  header.Defs.term <-
    Defs.Cond_br (Defs.Instr c.Loops.cond, c.Loops.body_entry, epi_header);
  (* 3. Guard bound: iv cmp (bound - (F-1)*step) guarantees all F
     iterations of one main-loop pass are within the original bound
     (monotonicity was checked by the caller). *)
  (match adjusted with
  | `Const b' -> Instr.set_operand c.Loops.cond 1 (const_iv c b')
  | `Symbolic delta ->
      let b' =
        Func.fresh_instr f
          ~name:(Instr.name c.Loops.cond ^ "_ubound")
          (Defs.Binop Defs.Sub) c.Loops.iv.Defs.ty
          [| c.Loops.bound; const_iv c delta |]
      in
      Block.append c.Loops.preheader b';
      Instr.set_operand c.Loops.cond 1 (Defs.Instr b'));
  (* 4. Body copies j = 1..F-1, each prefixed with iv_j = iv + j*step. *)
  let copies =
    List.init (factor - 1) (fun j ->
        let j = j + 1 in
        let iv_j =
          Func.fresh_instr f
            ~name:(Printf.sprintf "%s_p%d" (Instr.name c.Loops.iv) j)
            (Defs.Binop Defs.Add) c.Loops.iv.Defs.ty
            [| Defs.Instr c.Loops.iv; const_iv c (Int64.mul (Int64.of_int j) c.Loops.step) |]
        in
        let map_value v =
          match v with
          | Defs.Instr i when Instr.equal i c.Loops.iv -> Defs.Instr iv_j
          | v -> v
        in
        let bmap, imap =
          Loops.clone_region f region ~suffix:(Printf.sprintf "_p%d" j) ~map_value ~into ()
        in
        let entry_j = Hashtbl.find bmap c.Loops.body_entry.Defs.bid in
        insert_at_head entry_j iv_j;
        ( entry_j,
          Hashtbl.find bmap c.Loops.latch.Defs.bid,
          Hashtbl.find imap c.Loops.next.Defs.iid ))
  in
  (* 5. Chain the copies behind the original body and close the back
     edge with the last copy's iv increment (= iv + F*step). *)
  let rec chain (prev_latch : Defs.block) = function
    | [] -> prev_latch.Defs.term <- Defs.Br header
    | (entry_j, latch_j, _) :: rest ->
        prev_latch.Defs.term <- Defs.Br entry_j;
        chain latch_j rest
  in
  chain c.Loops.latch copies;
  match List.rev copies with
  | (_, last_latch, last_next) :: _ ->
      retarget_phi c.Loops.iv ~from_bid:c.Loops.latch.Defs.bid
        ~to_bid:last_latch.Defs.bid (Some (Defs.Instr last_next))
  | [] -> ()

(* --- Driver. ------------------------------------------------------- *)

(* What to do with one recognized loop under the policy. *)
let decide (policy : Config.unroll) (c : Loops.counted) =
  let size = Loops.num_instrs c.Loops.loop in
  let trip = Loops.trip_count c in
  let partial factor =
    if factor >= 2 && Loops.monotone c then
      match adjusted_bound_ok c factor with
      | Some adj -> `Partial (factor, adj)
      | None -> `Skip
    else `Skip
  in
  match policy with
  | Config.No_unroll -> `Skip
  | Config.Unroll_auto -> (
      match trip with
      | Some n when n * size <= full_budget -> `Full n
      | _ ->
          (* Bound the code growth of speculative partial unrolling. *)
          if size * auto_factor <= full_budget then partial auto_factor else `Skip)
  | Config.Unroll_by k -> (
      match trip with
      | Some n when n <= k && n * size <= full_budget -> `Full n
      | _ -> partial k)

let run ~(policy : Config.unroll) (f : Defs.func) : report =
  if policy = Config.No_unroll then { loops = 0; counted = 0; full = 0; partial = 0 }
  else begin
    let forest = Loops.analyze f in
    let counted = List.filter_map Loops.as_counted forest.Loops.loops in
    let full = ref 0 and partial = ref 0 in
    (* Counted loops are innermost and pairwise disjoint, and each
       transform only rewrites the loop's own blocks, its preheader
       terminator and fresh clones — one analysis serves them all.
       The block list is rewritten once at the end: fully unrolled
       loops leave it, and every clone joins it in creation order. *)
    let into = ref [] and removed = Hashtbl.create 16 in
    List.iter
      (fun c ->
        match decide policy c with
        | `Full n ->
            unroll_full f ~into c n;
            List.iter
              (fun (b : Defs.block) -> Hashtbl.replace removed b.Defs.bid ())
              c.Loops.loop.Loops.blocks;
            incr full
        | `Partial (factor, adj) ->
            unroll_partial f ~into c factor adj;
            incr partial
        | `Skip -> ())
      counted;
    if !into <> [] || Hashtbl.length removed > 0 then
      f.Defs.blocks <-
        List.filter (fun (b : Defs.block) -> not (Hashtbl.mem removed b.Defs.bid)) f.Defs.blocks
        @ List.rev !into;
    {
      loops = List.length forest.Loops.loops;
      counted = List.length counted;
      full = !full;
      partial = !partial;
    }
  end
