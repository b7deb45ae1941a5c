(* Vector code generation (paper Figure 1 step 6b).

   Walks the accepted SLP graph bottom-up, emitting one vector
   instruction per vectorizable node, insertelement chains for
   gathers, a broadcast for splats, and extractelements for values
   consumed by scalar code outside the graph.  The replaced scalar
   instructions are erased and the window of the block the tree spans
   is rescheduled by a dependence-respecting topological sort
   (register edges from SSA operands, memory edges in the order of the
   scalars each access replaced, ties broken by the ranks assigned
   during emission).  Revec's wide code goes through the same
   scheduler ({!place}).
   Every step is proportional to the tree and its window, not to the
   block: emission appends, erasure walks use lists, and ranks come
   from the block's order keys. *)

open Snslp_ir
open Snslp_analysis

exception Scheduling_failure of string

(* The graph builder only admits opcodes codegen knows how to widen;
   reaching [emit_vec] with anything else is a vectorizer bug.  The
   exception carries the offending opcode and the printed instruction
   so a fuzzing campaign (or a user report) pinpoints the node without
   a debugger. *)
exception Codegen_error of { opcode : string; instr : string }

let () =
  Printexc.register_printer (function
    | Codegen_error { opcode; instr } ->
        Some (Printf.sprintf "Codegen_error(opcode %s, instr %s)" opcode instr)
    | _ -> None)

let codegen_error (v : Defs.value) =
  match v with
  | Defs.Instr i ->
      raise (Codegen_error { opcode = Instr.opcode_mnemonic i; instr = Instr.to_string i })
  | Defs.Const _ | Defs.Undef _ | Defs.Arg _ ->
      raise (Codegen_error { opcode = "non-instruction"; instr = Value.name v })

(* A schedule rank: the position of an instruction the block held when
   the rewrite started ([base], read from its order key; [None] sorts
   before the whole block), plus [frac] hundredths of a position.  An
   instruction of the block ranks as itself; one codegen emitted slots
   in just after the scalars it replaces, one {!place}d just before
   its instruction.  Emission only appends and erasure only unlinks,
   so the keys of the block's instructions keep their order until the
   window is relinked. *)
type rank = { base : Defs.instr option; frac : int }

let no_rank = { base = None; frac = 0 }
let key (r : rank) = match r.base with Some i -> i.Defs.iorder | None -> -1
let offset (r : rank) hundredths = { r with frac = r.frac + hundredths }

let compare_rank (a : rank) (b : rank) =
  let c = Int.compare (key a) (key b) in
  if c <> 0 then c else Int.compare a.frac b.frac

(* What the scheduler knows of one rewrite of a block: the
   instructions it emitted (appended to the block), their ranks, and
   the scalars each emitted vector access stands for in memory
   order. *)
type schedule = {
  block : Defs.block;
  deps : Deps.t; (* the block's analysis, for memory summaries and order *)
  ranks : rank Int_table.t; (* iid -> rank, for instructions the rewrite emitted *)
  replaced : Defs.instr list Int_table.t; (* vector access iid -> scalars it stands for *)
  mutable new_instrs : Defs.instr list; (* emitted, newest first *)
}

let schedule deps block =
  { block; deps; ranks = Int_table.create 64; replaced = Int_table.create 8; new_instrs = [] }

type ctx = {
  g : Graph.t;
  func : Defs.func;
  builder : Builder.t;
  sched : schedule;
  extracts : Defs.value Int_table.t; (* (nid, lane), packed by [extract_key] -> extract *)
  mutable emitted : int;
}

(* Lanes number far fewer than 2^16. *)
let extract_key (n : Graph.node) lane = (n.Graph.nid lsl 16) lor lane

let is_new (s : schedule) (i : Defs.instr) = Int_table.mem s.ranks i.Defs.iid

let rank_of (s : schedule) (i : Defs.instr) : rank =
  match Int_table.find_opt s.ranks i.Defs.iid with
  | Some r -> r
  | None -> if Block.mem s.block i then { base = Some i; frac = 0 } else no_rank

let rank_of_value (s : schedule) (v : Defs.value) : rank =
  match v with
  | Defs.Instr i -> rank_of s i
  | Defs.Const _ | Defs.Undef _ | Defs.Arg _ -> no_rank

(* Instruction names must be function-unique for the textual IR to be
   unambiguous: rename emitted instructions from their fresh id. *)
let vname (i : Defs.instr) =
  Instr.set_name i (Printf.sprintf "v%d" i.Defs.iid);
  i

let set_rank (s : schedule) (i : Defs.instr) (r : rank) =
  (* Every rank assignment is for an instruction the rewrite created. *)
  if not (is_new s i) then s.new_instrs <- i :: s.new_instrs;
  Int_table.replace s.ranks i.Defs.iid r

(* A vector access stands for its node's scalars in the memory
   order ({!Deps.memory_order}). *)
let set_replaced (s : schedule) (i : Defs.instr) (n : Graph.node) =
  Int_table.replace s.replaced i.Defs.iid
    (Array.fold_right
       (fun v acc -> match v with Defs.Instr x -> x :: acc | _ -> acc)
       n.Graph.scalars [])

let max_rank (s : schedule) (vals : Defs.value array) : rank =
  Array.fold_left
    (fun acc v ->
      let r = rank_of_value s v in
      if compare_rank r acc > 0 then r else acc)
    no_rank vals

let min_rank (s : schedule) (vals : Defs.value array) : rank =
  Array.fold_left
    (fun acc v ->
      let r = rank_of_value s v in
      if compare_rank r acc < 0 then r else acc)
    (rank_of_value s vals.(0)) vals

(* Scheduling rank of a memory bundle: the position of its last member
   (members slide down) or its first (members slide up), as decided by
   the bundling legality check. *)
let bundle_rank (s : schedule) (n : Graph.node) : rank =
  if n.Graph.at_first then min_rank s n.Graph.scalars else max_rank s n.Graph.scalars

let vec_ty_of_node (n : Graph.node) : Ty.t =
  let elem =
    match n.Graph.scalars.(0) with
    | Defs.Instr i when Instr.is_store i -> Ty.elem (Value.ty i.Defs.ops.(0))
    | v -> Ty.elem (Value.ty v)
  in
  Ty.vector ~lanes:(Graph.lanes n) elem

(* The vector value holding the scalar [v]'s lane, when [v] belongs to
   a vectorized node. *)
let owning_node (ctx : ctx) (v : Defs.value) : (Graph.node * int) option =
  match v with
  | Defs.Instr i -> (
      match Int_table.find_opt ctx.g.Graph.claimed i.Defs.iid with
      | Some n when Graph.is_vectorizable_kind n.Graph.kind ->
          let lane = ref (-1) in
          Array.iteri (fun k s -> if Value.equal s v then lane := k) n.Graph.scalars;
          if !lane >= 0 then Some (n, !lane) else None
      | _ -> None)
  | Defs.Const _ | Defs.Undef _ | Defs.Arg _ -> None

let rec vec_of (ctx : ctx) (n : Graph.node) : Defs.value =
  match n.Graph.vec with
  | Some v -> v
  | None ->
      let v =
        match n.Graph.kind with
        | Graph.K_splat -> emit_splat ctx n
        | Graph.K_gather -> emit_gather ctx n
        | Graph.K_vec -> emit_vec ctx n
        | Graph.K_perm mask -> emit_perm ctx n mask
        | Graph.K_alt kinds -> emit_alt ctx n kinds
      in
      n.Graph.vec <- Some v;
      v

(* An extract of the lane of a vectorized scalar, for uses that stay
   scalar. *)
and extract_lane (ctx : ctx) (n : Graph.node) (lane : int) : Defs.value =
  match Int_table.find_opt ctx.extracts (extract_key n lane) with
  | Some v -> v
  | None ->
      let vec = vec_of ctx n in
      let e = vname (Builder.extractelement ctx.builder vec lane) in
      ctx.emitted <- ctx.emitted + 1;
      set_rank ctx.sched e (offset (rank_of_value ctx.sched vec) 25);
      let v = Instr.value e in
      Int_table.replace ctx.extracts (extract_key n lane) v;
      v

(* A scalar operand as seen by gather/splat code: if the scalar is
   itself vectorized (and will be erased), read it back out of its
   vector. *)
and resolve_scalar (ctx : ctx) (v : Defs.value) : Defs.value =
  match owning_node ctx v with
  | Some (n, lane) -> extract_lane ctx n lane
  | None -> v

and emit_splat (ctx : ctx) (n : Graph.node) : Defs.value =
  let ty = vec_ty_of_node n in
  let scalar = resolve_scalar ctx n.Graph.scalars.(0) in
  let ins = Builder.insertelement ctx.builder (Defs.Undef ty) scalar 0 in
  let mask = Array.make (Ty.lanes ty) 0 in
  let shuf = Builder.shuffle ctx.builder (Instr.value ins) (Defs.Undef ty) mask in
  ctx.emitted <- ctx.emitted + 2;
  let r = offset (rank_of_value ctx.sched n.Graph.scalars.(0)) 50 in
  set_rank ctx.sched ins r;
  set_rank ctx.sched shuf (offset r 1);
  Instr.value shuf

and emit_gather (ctx : ctx) (n : Graph.node) : Defs.value =
  let ty = vec_ty_of_node n in
  let base_rank = offset (max_rank ctx.sched n.Graph.scalars) 50 in
  let acc = ref (Defs.Undef ty) in
  Array.iteri
    (fun lane s ->
      let s = resolve_scalar ctx s in
      let ins = Builder.insertelement ctx.builder !acc s lane in
      ctx.emitted <- ctx.emitted + 1;
      set_rank ctx.sched ins (offset base_rank lane);
      acc := Instr.value ins)
    n.Graph.scalars;
  !acc

and emit_vec (ctx : ctx) (n : Graph.node) : Defs.value =
  match n.Graph.scalars.(0) with
  | Defs.Instr i0 when Instr.is_store i0 ->
      let value = vec_of ctx n.Graph.children.(0) in
      let addr = i0.Defs.ops.(1) in
      let st = Builder.store ctx.builder value addr in
      ctx.emitted <- ctx.emitted + 1;
      set_rank ctx.sched st (bundle_rank ctx.sched n);
      set_replaced ctx.sched st n;
      Instr.value st
  | Defs.Instr i0 when Instr.is_load i0 ->
      let lanes = Graph.lanes n in
      let addr = i0.Defs.ops.(0) in
      let ld = vname (Builder.vload ctx.builder ~lanes addr) in
      ctx.emitted <- ctx.emitted + 1;
      set_rank ctx.sched ld (bundle_rank ctx.sched n);
      set_replaced ctx.sched ld n;
      Instr.value ld
  | Defs.Instr i0 -> (
      match i0.Defs.op with
      | Defs.Binop kind ->
          let a = vec_of ctx n.Graph.children.(0) in
          let b = vec_of ctx n.Graph.children.(1) in
          let op = vname (Builder.binop ctx.builder kind a b) in
          ctx.emitted <- ctx.emitted + 1;
          set_rank ctx.sched op (max_rank ctx.sched n.Graph.scalars);
          Instr.value op
      | Defs.Icmp pred ->
          let a = vec_of ctx n.Graph.children.(0) in
          let b = vec_of ctx n.Graph.children.(1) in
          let op = vname (Builder.icmp ctx.builder pred a b) in
          ctx.emitted <- ctx.emitted + 1;
          set_rank ctx.sched op (max_rank ctx.sched n.Graph.scalars);
          Instr.value op
      | Defs.Fcmp pred ->
          let a = vec_of ctx n.Graph.children.(0) in
          let b = vec_of ctx n.Graph.children.(1) in
          let op = vname (Builder.fcmp ctx.builder pred a b) in
          ctx.emitted <- ctx.emitted + 1;
          set_rank ctx.sched op (max_rank ctx.sched n.Graph.scalars);
          Instr.value op
      | Defs.Select ->
          let c = vec_of ctx n.Graph.children.(0) in
          let a = vec_of ctx n.Graph.children.(1) in
          let b = vec_of ctx n.Graph.children.(2) in
          let op = vname (Builder.select ctx.builder c a b) in
          ctx.emitted <- ctx.emitted + 1;
          set_rank ctx.sched op (max_rank ctx.sched n.Graph.scalars);
          Instr.value op
      | Defs.Alt_binop _ | Defs.Load | Defs.Store | Defs.Gep | Defs.Insert
      | Defs.Extract | Defs.Shuffle _ | Defs.Phi _ ->
          (* No other opcode becomes K_vec. *)
          codegen_error n.Graph.scalars.(0))
  | (Defs.Const _ | Defs.Undef _ | Defs.Arg _) as v -> codegen_error v

(* A lane permutation of an already-vectorized group: one shuffle. *)
and emit_perm (ctx : ctx) (n : Graph.node) (mask : int array) : Defs.value =
  let src = vec_of ctx n.Graph.children.(0) in
  let shuf = vname (Builder.shuffle ctx.builder src (Defs.Undef (Value.ty src)) mask) in
  ctx.emitted <- ctx.emitted + 1;
  set_rank ctx.sched shuf (offset (rank_of_value ctx.sched src) 1);
  Instr.value shuf

and emit_alt (ctx : ctx) (n : Graph.node) (kinds : Defs.binop array) : Defs.value =
  let a = vec_of ctx n.Graph.children.(0) in
  let b = vec_of ctx n.Graph.children.(1) in
  let op = vname (Builder.alt_binop ctx.builder kinds a b) in
  ctx.emitted <- ctx.emitted + 1;
  set_rank ctx.sched op (max_rank ctx.sched n.Graph.scalars);
  Instr.value op

(* --- Rewiring and cleanup ---------------------------------------------- *)

(* Replace remaining scalar uses of vectorized values with lane
   extracts. *)
let rewire_external_uses (ctx : ctx) =
  List.iter
    (fun (n : Graph.node) ->
      if Graph.is_vectorizable_kind n.Graph.kind then
        Array.iteri
          (fun lane v ->
            match v with
            | Defs.Instr i when not (Instr.is_store i) ->
                let uses = Func.uses_of ctx.func v in
                List.iter
                  (fun ((user : Defs.instr), idx) ->
                    if not (Int_table.mem ctx.g.Graph.claimed user.Defs.iid) then
                      Instr.set_operand user idx (extract_lane ctx n lane))
                  uses
            | _ -> ())
          n.Graph.scalars)
    (Graph.nodes ctx.g)

(* Erase the scalar instructions replaced by vector code (the
   victims: the graph's claimed scalars), and sweep the pure scalars
   (typically lane geps) orphaned by the rewrite.  A use-count
   worklist over the victims' use lists, seeded in node order: an
   instruction's count of attached users is taken from its use list
   the first time the sweep reaches it, and drops as its users are
   erased.  Nothing is unlinked during the sweep, so what it erases
   does not depend on the order it visits.  Operands in other blocks
   are counted as erased but left in place.  Returns the number erased
   and the erased instructions of this block, whose operand uses are
   retired here; they stay linked until {!reschedule} has read the
   window around them. *)
let erase_vectorized (ctx : ctx) =
  let victims = ctx.g.Graph.claimed in
  let use_count = Int_table.create 64 in
  let uses (i : Defs.instr) =
    match Int_table.find_opt use_count i.Defs.iid with
    | Some c -> c
    | None ->
        let c = Use.fold (fun c (u : Defs.instr) _ -> if u.Defs.iblock <> None then c + 1 else c) 0 i in
        Int_table.replace use_count i.Defs.iid c;
        c
  in
  let erased = Int_table.create 64 in
  let erasable (i : Defs.instr) =
    (not (Int_table.mem erased i.Defs.iid))
    && uses i = 0
    && (Int_table.mem victims i.Defs.iid || Instr.has_result i)
  in
  let worklist = Queue.create () in
  List.iter
    (fun (n : Graph.node) ->
      if Graph.is_vectorizable_kind n.Graph.kind then
        Array.iter
          (function Defs.Instr i when erasable i -> Queue.add i worklist | _ -> ())
          n.Graph.scalars)
    (Graph.nodes ctx.g);
  let here = ref [] in
  while not (Queue.is_empty worklist) do
    let i = Queue.pop worklist in
    if erasable i then begin
      Int_table.replace erased i.Defs.iid ();
      if Block.mem ctx.g.Graph.block i then here := i :: !here;
      Array.iter
        (fun o ->
          match o with
          | Defs.Instr d ->
              Int_table.replace use_count d.Defs.iid (uses d - 1);
              if erasable d then Queue.add d worklist
          | Defs.Const _ | Defs.Undef _ | Defs.Arg _ -> ())
        i.Defs.ops
    end
  done;
  let missed =
    Int_table.fold (fun iid _ acc -> if Int_table.mem erased iid then acc else acc + 1) victims 0
  in
  if missed > 0 then
    raise
      (Scheduling_failure
         (Printf.sprintf "codegen: %d vectorized scalars still have uses" missed));
  List.iter Use.unregister_all !here;
  (Int_table.length erased, !here)

(* --- Scheduling --------------------------------------------------------- *)

(* A dependence-respecting order of [window] (given in block order):
   Kahn's algorithm, min rank first, ties by window position.
   Register edges come from SSA operands.  Memory edges join
   conflicting accesses in the order of the scalars they stand for
   ({!Deps.memory_order}): a vector access for its node's scalars,
   which are still linked, any other for itself.  Ranks only break
   ties between ready instructions. *)
let topo_sort (sched : schedule) (window : Defs.instr array) =
  let w = Array.length window in
  let index = Int_table.create (2 * w) in
  Array.iteri (fun k i -> Int_table.replace index i.Defs.iid k) window;
  let edges = Array.make w [] (* successor lists *) in
  let indeg = Array.make w 0 in
  let add_edge a b =
    edges.(a) <- b :: edges.(a);
    indeg.(b) <- indeg.(b) + 1
  in
  Array.iteri
    (fun k i ->
      Array.iter
        (fun o ->
          match o with
          | Defs.Instr d -> (
              match Int_table.find_opt index d.Defs.iid with
              | Some dk when dk <> k -> add_edge dk k
              | _ -> ())
          | Defs.Const _ | Defs.Undef _ | Defs.Arg _ -> ())
        i.Defs.ops)
    window;
  (* The block's dependence analysis keeps the affine summaries it
     read; only the fresh vector instructions are summarised from
     scratch. *)
  let deps = sched.deps in
  let memlocs = Array.map (Deps.memloc deps) window in
  let ranks = Array.map (rank_of sched) window in
  let stands_for (i : Defs.instr) =
    Option.value ~default:[ i ] (Int_table.find_opt sched.replaced i.Defs.iid)
  in
  (* Only positions that touch memory can conflict: pair over those,
     not the whole window. *)
  let mem_idx = ref [] in
  for k = w - 1 downto 0 do
    if Option.is_some memlocs.(k) then mem_idx := k :: !mem_idx
  done;
  let mem = Array.of_list !mem_idx in
  let m = Array.length mem in
  for x = 0 to m - 1 do
    let a = mem.(x) in
    for y = x + 1 to m - 1 do
      let b = mem.(y) in
      match (memlocs.(a), memlocs.(b)) with
      | Some la, Some lb when Deps.conflicts window.(a) la window.(b) lb -> (
          match Deps.memory_order deps (stands_for window.(a)) (stands_for window.(b)) with
          | Deps.Before -> add_edge a b
          | Deps.After -> add_edge b a
          | Deps.Unordered -> ()
          | Deps.Both ->
              raise
                (Scheduling_failure
                   (Printf.sprintf "memory order of %s and %s is contradictory"
                      (Instr.to_string window.(a)) (Instr.to_string window.(b)))))
      | _ -> ()
    done
  done;
  (* A binary heap makes the selection O(log w) instead of O(w). *)
  let heap = Array.make (w + 1) (-1) in
  let heap_len = ref 0 in
  let before a b =
    let c = compare_rank ranks.(a) ranks.(b) in
    c < 0 || (c = 0 && a < b)
  in
  let push k =
    incr heap_len;
    let p = ref !heap_len in
    heap.(!p) <- k;
    while !p > 1 && before heap.(!p) heap.(!p / 2) do
      let t = heap.(!p / 2) in
      heap.(!p / 2) <- heap.(!p);
      heap.(!p) <- t;
      p := !p / 2
    done
  in
  let pop () =
    let top = heap.(1) in
    heap.(1) <- heap.(!heap_len);
    decr heap_len;
    let p = ref 1 in
    let continue = ref (!heap_len > 1) in
    while !continue do
      let l = 2 * !p and r = (2 * !p) + 1 in
      let s = ref !p in
      if l <= !heap_len && before heap.(l) heap.(!s) then s := l;
      if r <= !heap_len && before heap.(r) heap.(!s) then s := r;
      if !s = !p then continue := false
      else begin
        let t = heap.(!s) in
        heap.(!s) <- heap.(!p);
        heap.(!p) <- t;
        p := !s
      end
    done;
    top
  in
  for k = 0 to w - 1 do
    if indeg.(k) = 0 then push k
  done;
  let scheduled = ref [] in
  for _ = 1 to w do
    if !heap_len = 0 then raise (Scheduling_failure "dependence cycle after vectorization");
    let k = pop () in
    scheduled := window.(k) :: !scheduled;
    List.iter
      (fun j ->
        indeg.(j) <- indeg.(j) - 1;
        if indeg.(j) = 0 then push j)
      edges.(k)
  done;
  List.rev !scheduled

(* Restore a dependence-respecting order after the rewrite, and unlink
   the erased instructions of the block.  Only the window of positions
   the new instructions land in can be disturbed; everything before
   and after keeps its order.  The window runs from the lowest new
   rank's position to the highest's (the next position when that is
   fractional) or to the lowest operand of a new instruction, extended
   upward along use lists so no instruction above it uses one inside
   it, and is sorted by {!topo_sort}.

   A new instruction ranked before the whole block (a splat or gather
   of arguments and constants) would open the window at the block
   head.  When such instructions depend only on each other and no
   instruction of the block uses them, the sort would emit them first
   and then the block's instructions in order up to the rest of the
   window, so they are sorted on their own and moved to the head, and
   the window opens at the other new instructions.  Every tree that
   compares against a splatted constant takes this path: on 1,000
   nested ifs it keeps [sched] at 10 ms, where opening the window at
   the head costs 12 s.  Returns every instruction this moved. *)
let reschedule (s : schedule) ~(erased : Defs.instr list) =
  let gone = Int_table.create 64 in
  List.iter (fun (i : Defs.instr) -> Int_table.replace gone i.Defs.iid ()) erased;
  let gone (i : Defs.instr) = Int_table.mem gone i.Defs.iid in
  let fresh = List.rev (List.filter (Block.mem s.block) s.new_instrs) in
  let low, high = List.partition (fun i -> (rank_of s i).base = None) fresh in
  let is_low (d : Defs.instr) = is_new s d && (rank_of s d).base = None in
  let low_apart =
    low <> [] && high <> []
    && List.for_all
         (fun (i : Defs.instr) ->
           Array.for_all
             (function
               | Defs.Instr d -> (not (Block.mem s.block d)) || is_low d
               | Defs.Const _ | Defs.Undef _ | Defs.Arg _ -> true)
             i.Defs.ops
           && not (Use.exists (fun u _ -> Block.mem s.block u && not (is_new s u)) i))
         low
  in
  let sorted = if low_apart then high else fresh in
  let moved =
    match sorted with
    | [] -> []
    | first_new :: _ ->
        let lo_rank, hi_rank =
          List.fold_left
            (fun (lo, hi) i ->
              let r = rank_of s i in
              ((if compare_rank r lo < 0 then r else lo), if compare_rank r hi > 0 then r else hi))
            (rank_of s first_new, rank_of s first_new)
            sorted
        in
        (* The block's instructions before the new ones, from the
           window's first position; erased ones are still linked. *)
        let original = function Some i when not (is_new s i) -> Some i | _ -> None in
        let start =
          match lo_rank.base with Some i -> Some i | None -> original (Block.first s.block)
        in
        let hi =
          if hi_rank.frac <= 0 then key hi_rank
          else
            let next =
              match hi_rank.base with
              | Some i -> original i.Defs.inext
              | None -> original (Block.first s.block)
            in
            match next with Some i -> i.Defs.iorder | None -> max_int
        in
        (* Down to every operand the new instructions read from the
           block: a bundle placed at its first member reads the later
           lanes' addresses, which may be defined below. *)
        let hi =
          List.fold_left
            (fun hi (i : Defs.instr) ->
              Array.fold_left
                (fun hi o ->
                  match o with
                  | Defs.Instr d when Block.mem s.block d && not (is_new s d) ->
                      max hi d.Defs.iorder
                  | Defs.Instr _ | Defs.Const _ | Defs.Undef _ | Defs.Arg _ -> hi)
                hi i.Defs.ops)
            hi sorted
        in
        let rec forward acc = function
          | Some (i : Defs.instr) when (not (is_new s i)) && i.Defs.iorder <= hi ->
              forward (if gone i then acc else i :: acc) i.Defs.inext
          | rest -> (List.rev acc, rest)
        in
        let run, rest = forward [] start in
        let rec skip_gone = function Some i when gone i -> skip_gone i.Defs.inext | rest -> rest in
        let suffix = original (skip_gone rest) in
        (* Extend the window upward along use lists. *)
        let lo = ref (key lo_rank) in
        let first = ref start in
        let run = ref run in
        let pending = Queue.create () in
        List.iter (fun i -> Queue.add i pending) !run;
        List.iter (fun i -> Queue.add i pending) sorted;
        while not (Queue.is_empty pending) do
          let d = Queue.pop pending in
          Use.iter
            (fun (u : Defs.instr) _ ->
              if
                Block.mem s.block u && (not (is_new s u)) && (not (gone u))
                && u.Defs.iorder < !lo
              then lo := u.Defs.iorder)
            d;
          let rec backward (at : Defs.instr option) =
            match at with
            | Some i when i.Defs.iorder >= !lo ->
                if not (gone i) then begin
                  run := i :: !run;
                  Queue.add i pending
                end;
                first := at;
                backward i.Defs.iprev
            | _ -> ()
          in
          match !first with Some f -> backward f.Defs.iprev | None -> ()
        done;
        let scheduled = topo_sort s (Array.of_list (!run @ sorted)) in
        List.iter (Block.remove s.block) erased;
        Block.relink s.block ?before:suffix scheduled;
        scheduled
  in
  if moved = [] then List.iter (Block.remove s.block) erased;
  if low_apart then begin
    let head = topo_sort s (Array.of_list low) in
    let rec first_other = function
      | Some i when is_low i -> first_other i.Defs.inext
      | at -> at
    in
    Block.relink s.block ?before:(first_other (Block.first s.block)) head;
    head @ moved
  end
  else moved

(* Positions instructions that a rewrite other than codegen appended
   to [block] (Revec), through the same scheduler. *)
let place deps block ~erased placed =
  let s = schedule deps block in
  List.iter
    (fun ((i : Defs.instr), at, stands_for) ->
      set_rank s i { base = Some at; frac = -1 };
      if stands_for <> [] then Int_table.replace s.replaced i.Defs.iid stands_for)
    placed;
  List.iter Use.unregister_all erased;
  reschedule s ~erased

(* --- Entry point -------------------------------------------------------- *)

type report = { vector_instrs : int; scalars_erased : int }

(* [run g] rewrites the IR according to the accepted graph [g], then
   verifies what this tree touched: every instruction it emitted or
   moved, and every one it erased ({!Verifier.verify_local}).  The
   whole function is verified once per vectorizer run, by the
   caller. *)
let run ~scope (g : Graph.t) : report =
  let func = g.Graph.func in
  let block = g.Graph.block in
  let ctx =
    {
      g;
      func;
      builder = Builder.create func ~at:block;
      sched = schedule g.Graph.deps block;
      extracts = Int_table.create 16;
      emitted = 0;
    }
  in
  let stats = g.Graph.stats in
  let _root_vec = Stats.time ?stats Stats.Emit (fun () -> vec_of ctx (Graph.root g)) in
  Stats.time ?stats Stats.Rewire (fun () -> rewire_external_uses ctx);
  let erased, here = Stats.time ?stats Stats.Erase (fun () -> erase_vectorized ctx) in
  let moved = Stats.time ?stats Stats.Sched (fun () -> reschedule ctx.sched ~erased:here) in
  Stats.time ?stats Stats.Cg_verify (fun () ->
      Verifier.verify_local_exn scope ~touched:moved ~erased:here);
  { vector_instrs = ctx.emitted; scalars_erased = erased }
