(* Intra-block dependence analysis.

   SLP needs two queries: (i) may groups of instructions each be fused
   into one instruction (legal iff contracting every group leaves the
   dependences acyclic; for one group, iff no member transitively
   depends on another), asked one group at a time as a tree is built,
   against the groups accepted before it, and (ii) where a memory
   bundle may be scheduled (the slide rules).  The first reads one
   closure per tree: the positions that depend on a group accepted so
   far ({!fusion}), grown by each admission.

   Register dependences come from use-def edges.  Memory dependences
   use the alias model of KernelC: distinct array parameters never
   alias (they are `restrict`); accesses to the same base alias unless
   their affine index ranges provably do not overlap.  Loads commute
   with loads; all other may-overlapping pairs are ordered.

   Every dependence edge joins an earlier position to a later one
   (defs precede uses, memory order follows block order), so a
   dependence path between two instructions stays inside their
   position window.  The analysis exploits that: reading the block is
   O(block), every query walks forward through dependences and stops
   at the highest position it concerns, and a walk finds memory edges
   through the block's accesses by class, so an access meets only the
   accesses it may conflict with. *)

open Snslp_ir

type memloc = { addr : Address.t; width : int (* elements *) }

let memloc_of_instr (i : Defs.instr) : memloc option =
  match Address.of_instr i with
  | None -> None
  | Some addr ->
      let width =
        match i.Defs.op with
        | Defs.Load -> Ty.lanes i.Defs.ty
        | Defs.Store -> Ty.lanes (Value.ty i.Defs.ops.(0))
        | _ -> 1
      in
      Some { addr; width }

let is_arg_base (a : Address.t) =
  match a.Address.base with Defs.Arg _ -> true | _ -> false

(* Conservative may-alias between two accessed ranges. *)
let may_overlap (a : memloc) (b : memloc) =
  if Address.same_base a.addr b.addr then
    match Affine.delta a.addr.Address.index b.addr.Address.index with
    | Some d ->
        (* b starts d elements after a: ranges [0, wa) and [d, d+wb). *)
        d < a.width && -d < b.width
    | None -> true (* same base, incomparable indexes *)
  else if is_arg_base a.addr && is_arg_base b.addr then false (* restrict args *)
  else true

(* Two accesses conflict when their ranges may overlap and at least
   one of them writes: loads commute with loads, every other pair that
   may overlap keeps its order. *)
let conflicts (a : Defs.instr) (la : memloc) (b : Defs.instr) (lb : memloc) =
  (Instr.writes_memory a || Instr.writes_memory b) && may_overlap la lb

(* Positions by instruction id: one array per domain, shared by every
   view built there.  A view writes its block's positions into it when
   it reads the block, and trusts an entry only when its own
   instruction array holds that very instruction at that position.  So
   an entry left by an instruction that was since erased or moved, or
   written by a view of another block or of a clone (clones keep ids),
   reads as absent.  Views of different blocks of one function write
   disjoint entries.  A view that finds an entry absent after another
   view wrote last writes its own positions again before it answers,
   so switching between views costs O(block), and the array grows by
   doubling to the largest id seen: a view costs O(block), never
   O(ids of the function). *)
type slots = {
  mutable pos : int array; (* iid -> position, -1 where none was written *)
  mutable writer : int; (* serial of the view that wrote last *)
  mutable views : int; (* views built in this domain *)
}

let slots_key = Domain.DLS.new_key (fun () -> { pos = [||]; writer = -1; views = 0 })

(* The block's accesses by class, so that a query walks the accesses
   one access may conflict with rather than every access of a window.
   Two accesses to argument bases conflict only if they share the
   argument and the element type ({!may_overlap}); an access to any
   other base may conflict with every access.  Class 0 holds the
   latter; the argument at position [a] with element type [e] has class
   [1 + 4a + e]. *)
type classes = {
  accesses : int array; (* positions of every access, ascending *)
  loads : int array array; (* class -> positions of its loads, ascending *)
  stores : int array array; (* class -> positions of its stores, ascending *)
}

(* The view of the block as last read: instructions in block order,
   their positions by id and their memory summaries.  Every query
   first compares the block's edit stamp with the one the view was
   read at, and re-reads the block when it moved. *)
type t = {
  block : Defs.block;
  mutable stamp : int; (* the block's edit stamp when last read *)
  mutable instrs : Defs.instr array; (* block order *)
  slots : slots; (* the constructing domain's position array *)
  serial : int; (* this view's mark in [slots.writer] *)
  mutable memlocs : memloc option array;
  mutable classes : classes option; (* the accesses by class, once read *)
  mutable rereads : int;
  mutable admit_work : int; (* what admissions marked, examined and allocated *)
  time : (unit -> unit) -> unit; (* runs each re-read *)
  owner : int;
      (* Domain.id of the constructing domain.  A Deps.t is a bundle
         of unsynchronized mutable caches: under the parallel driver
         every instance is domain-local by construction, and a re-read
         asserts it stayed that way. *)
}

let self_id () = (Domain.self () :> int)

(* Write the view's positions into the shared array. *)
let install (t : t) =
  let s = t.slots in
  let top = Array.fold_left (fun m (i : Defs.instr) -> max m i.Defs.iid) (-1) t.instrs in
  let n = Array.length s.pos in
  if top >= n then begin
    let pos = Array.make (max (top + 1) (2 * n)) (-1) in
    Array.blit s.pos 0 pos 0 n;
    s.pos <- pos
  end;
  Array.iteri (fun p (i : Defs.instr) -> s.pos.(i.Defs.iid) <- p) t.instrs;
  s.writer <- t.serial

(* The position of [i] in the view, or -1 when the view does not hold
   it. *)
let rec slot (t : t) (i : Defs.instr) =
  let s = t.slots and id = i.Defs.iid in
  let p = if id >= 0 && id < Array.length s.pos then s.pos.(id) else -1 in
  if p >= 0 && p < Array.length t.instrs && t.instrs.(p) == i then p
  else if s.writer = t.serial then -1
  else begin
    install t;
    slot t i
  end

let of_block ?(time = fun f -> f ()) (b : Defs.block) : t =
  let instrs = Block.to_array b in
  let slots = Domain.DLS.get slots_key in
  slots.views <- slots.views + 1;
  let t =
    {
      block = b;
      stamp = Block.stamp b;
      instrs;
      slots;
      serial = slots.views;
      memlocs = Array.map memloc_of_instr instrs;
      classes = None;
      rereads = 0;
      admit_work = 0;
      time;
      owner = self_id ();
    }
  in
  install t;
  t

(* Re-read the block after it was rewritten (Super-Node massaging,
   codegen): new positions and memory summaries without recomputing
   the affine address of every surviving access.  Massaging
   regenerates arithmetic chains but never rewrites a load/store
   address operand, so an instruction that keeps its id keeps its
   [memloc]; only the freshly inserted instructions are summarised
   from scratch.  The accesses by class are position-based and are
   read again when next needed. *)
let reread (t : t) =
  if t.owner <> self_id () then
    invalid_arg "Deps: block re-read from a domain other than the analysis's owner";
  let instrs = Block.to_array t.block in
  let memlocs =
    Array.map
      (fun (i : Defs.instr) ->
        let p = slot t i in
        if p >= 0 then t.memlocs.(p) else memloc_of_instr i)
      instrs
  in
  t.instrs <- instrs;
  t.memlocs <- memlocs;
  install t;
  t.classes <- None;
  t.rereads <- t.rereads + 1;
  t.stamp <- Block.stamp t.block

(* Every query starts here. *)
let current (t : t) = if t.stamp <> Block.stamp t.block then t.time (fun () -> reread t)

let reread_count (t : t) = t.rereads
let admission_work (t : t) = t.admit_work

(* A summary is a property of the instruction, not of its position, so
   this query needs no re-read: an instruction the view has read keeps
   its summary (see [reread]), any other is summarised now. *)
let memloc (t : t) (i : Defs.instr) =
  let p = slot t i in
  if p >= 0 then t.memlocs.(p) else memloc_of_instr i

let position (t : t) (i : Defs.instr) =
  let p = slot t i in
  if p >= 0 then p else invalid_arg "Deps: instruction not in the analysed block"

(* The accesses at positions [a] and [b] conflict. *)
let conflict (t : t) a b =
  match (t.memlocs.(a), t.memlocs.(b)) with
  | Some la, Some lb -> conflicts t.instrs.(a) la t.instrs.(b) lb
  | _ -> false

let class_of (l : memloc) =
  match l.addr.Address.base with
  | Defs.Arg a ->
      let e =
        match l.addr.Address.elem with Ty.I32 -> 0 | Ty.I64 -> 1 | Ty.F32 -> 2 | Ty.F64 -> 3
      in
      1 + (4 * a.Defs.arg_pos) + e
  | Defs.Instr _ | Defs.Const _ | Defs.Undef _ -> 0

(* Read once per read of the block, at the first query that walks
   conflicts.  Only the accesses are sorted, so a block of few accesses
   costs little more than one pass over its summaries. *)
let classes (t : t) =
  match t.classes with
  | Some c -> c
  | None ->
      let n = Array.fold_left (fun k l -> if Option.is_some l then k + 1 else k) 0 t.memlocs in
      let accesses = Array.make n 0 in
      (* Loads of class [c] are of kind [2c], stores of kind [2c + 1]. *)
      let kinds = Array.make n 0 in
      let next = ref 0 in
      Array.iteri
        (fun p -> function
          | Some l ->
              accesses.(!next) <- p;
              kinds.(!next) <-
                (2 * class_of l) + if Instr.writes_memory t.instrs.(p) then 1 else 0;
              incr next
          | None -> ())
        t.memlocs;
      (* Both kinds of every class up to the largest; class 0 always. *)
      let count = Array.make (2 + Array.fold_left max 1 kinds) 0 in
      Array.iter (fun k -> count.(k) <- count.(k) + 1) kinds;
      let lists = Array.map (fun k -> Array.make k 0) count in
      Array.fill count 0 (Array.length count) 0;
      Array.iteri
        (fun a k ->
          lists.(k).(count.(k)) <- accesses.(a);
          count.(k) <- count.(k) + 1)
        kinds;
      let nclasses = Array.length count / 2 in
      let c =
        {
          accesses;
          loads = Array.init nclasses (fun c -> lists.(2 * c));
          stores = Array.init nclasses (fun c -> lists.(2 * c + 1));
        }
      in
      t.classes <- Some c;
      c

(* [iter_conflicts t x ~lo ~hi f]: [f p] for every access [p] strictly
   between positions [lo] and [hi] that conflicts with the access at
   [x]: the stores of its class and of class 0, and their loads too
   when [x] is a store; every access when [x] is of class 0.  Returns
   how many accesses it examined. *)
let iter_conflicts (t : t) x ~lo ~hi f =
  let c = classes t in
  let examined = ref 0 in
  let walk (a : int array) =
    let l = ref 0 and h = ref (Array.length a) in
    while !l < !h do
      let m = (!l + !h) / 2 in
      if a.(m) <= lo then l := m + 1 else h := m
    done;
    let k = ref !l in
    while !k < Array.length a && a.(!k) < hi do
      if conflict t x a.(!k) then f a.(!k);
      incr k
    done;
    examined := !examined + !k - !l
  in
  let cx = match t.memlocs.(x) with Some l -> class_of l | None -> 0 in
  if cx = 0 then walk c.accesses
  else begin
    walk c.stores.(cx);
    walk c.stores.(0);
    if Instr.writes_memory t.instrs.(x) then begin
      walk c.loads.(cx);
      walk c.loads.(0)
    end
  end;
  !examined

(* [visit p] for each position up to [top] that depends directly on
   position [x]: its users in the block, and the later accesses that
   conflict with it.  Returns how many users and accesses it
   examined. *)
let iter_successors (t : t) x ~top visit =
  let users = ref 0 in
  Use.iter
    (fun u _ ->
      incr users;
      let p = slot t u in
      if p > x && p <= top then visit p)
    t.instrs.(x);
  if Option.is_none t.memlocs.(x) then !users
  else !users + iter_conflicts t x ~lo:x ~hi:(top + 1) visit

(* [depends t ~on i] holds when [i] transitively depends on [on]: a
   walk forward from [on], which never needs to pass [i]'s position. *)
let depends (t : t) ~(on : Defs.instr) (i : Defs.instr) =
  current t;
  let po = position t on and pi = position t i in
  let seen = Bytes.make (max 0 (pi - po + 1)) '\000' in
  let rec from = function
    | [] -> false
    | x :: rest ->
        let next = ref rest in
        ignore
          (iter_successors t x ~top:pi (fun p ->
               if Bytes.get seen (p - po) = '\000' then begin
                 Bytes.set seen (p - po) '\001';
                 next := p :: !next
               end));
        Bytes.get seen (pi - po) <> '\000' || from !next
  in
  po < pi && from [ po ]

(* Where a memory bundle may be scheduled: fused at the last member's
   position (every other member slides down) or at the first member's
   position (members slide up).  A slide is legal only when the member
   passes no conflicting instruction.  Stores naturally fuse at the
   bottom, loads at the top; both directions are tried. *)
type placement = At_last | At_first

let slide (t : t) (group : Defs.instr list) : placement option =
  let members =
    List.filter_map
      (fun i ->
        let p = position t i in
        Option.map (fun _ -> p) t.memlocs.(p))
      group
  in
  match members with
  | [] -> Some At_last (* nothing moves in memory terms *)
  | _ ->
      let lo = List.fold_left min max_int members in
      let hi = List.fold_left max min_int members in
      (* Sliding down, a member passes the accesses between it and
         [hi]; sliding up, those between [lo] and it. *)
      let legal ~down =
        not
          (List.exists
             (fun mp ->
               let blocked = ref false in
               t.admit_work <-
                 t.admit_work
                 + iter_conflicts t mp
                     ~lo:(if down then mp else lo)
                     ~hi:(if down then hi else mp)
                     (fun p -> if not (List.exists (Int.equal p) members) then blocked := true);
               !blocked)
             members)
      in
      if legal ~down:true then Some At_last
      else if legal ~down:false then Some At_first
      else None

(* The groups accepted so far, in order, and their closure: every
   position that depends on an accepted member, members included, up
   to [top], the last position in block order that a member of any
   group admitted so far occupies.  A dependence path between members
   never passes its later end, so the closure need not reach past
   [top].  [marks] holds one byte per position, position [p] at
   [top - p] (a tree is built from its seed upward, so it grows away
   from [top]): whether the closure holds it, and the marks of the
   running walk. *)
type fusion = {
  deps : t;
  mutable groups : Defs.instr array array; (* the first [ngroups] *)
  mutable ngroups : int;
  owner : int Int_table.t; (* accepted member's id -> its group's index *)
  mutable read : int; (* the view's read the closure describes; -1 when stale *)
  mutable top : int;
  mutable marks : Bytes.t;
  mutable work : int array; (* the positions the running walk marked, in order *)
  mutable nwork : int;
}

let fusion (t : t) =
  {
    deps = t;
    groups = [||];
    ngroups = 0;
    owner = Int_table.create 16;
    read = -1;
    top = -1;
    marks = Bytes.empty;
    work = [||];
    nwork = 0;
  }

(* A mark: bit 0, in the closure; bit 1, a member of the group being
   admitted; bit 2, reached by the running walk. *)
let inside = 1
let source = 2
let reached = 4
let walked = source lor reached

let words bytes = (bytes + 7) / 8

let mark (f : fusion) p =
  let k = f.top - p in
  if k < Bytes.length f.marks then Char.code (Bytes.get f.marks k) else 0

let set (f : fusion) p m =
  let k = f.top - p in
  let n = Bytes.length f.marks in
  if k >= n then begin
    let marks = Bytes.make (max (k + 1) (2 * n)) '\000' in
    Bytes.blit f.marks 0 marks 0 n;
    f.deps.admit_work <- f.deps.admit_work + words (Bytes.length marks);
    f.marks <- marks
  end;
  Bytes.set f.marks k (Char.chr m)

(* Add [m] to [p]'s mark and put [p] on the work list. *)
let push (f : fusion) p m =
  set f p (mark f p lor m);
  if f.nwork = Array.length f.work then begin
    let work = Array.make (max 16 (2 * f.nwork)) 0 in
    Array.blit f.work 0 work 0 f.nwork;
    f.work <- work
  end;
  f.work.(f.nwork) <- p;
  f.nwork <- f.nwork + 1;
  f.deps.admit_work <- f.deps.admit_work + 1

(* Clear the walk's marks, adding [m] to each position it marked. *)
let settle (f : fusion) m =
  for k = 0 to f.nwork - 1 do
    let i = f.top - f.work.(k) in
    Bytes.set f.marks i (Char.chr (Char.code (Bytes.get f.marks i) land lnot walked lor m))
  done;
  f.nwork <- 0

(* Walk forward from the work list through every dependence; [visit]
   marks what to walk next.  False as soon as the walk reaches a
   member of the group being admitted (a [source]): one of its members
   depends on another, or on a group that depends on it. *)
let walk (f : fusion) visit =
  let k = ref 0 and closed = ref false in
  let visit p =
    let m = mark f p in
    if m land source <> 0 then closed := true else if m land reached = 0 then visit p m
  in
  while !k < f.nwork && not !closed do
    let x = f.work.(!k) in
    incr k;
    f.deps.admit_work <- f.deps.admit_work + iter_successors f.deps x ~top:f.top visit
  done;
  not !closed

(* The walk that grows the closure: it skips what the closure holds,
   since what depends on a position inside it is inside too. *)
let spread (f : fusion) = walk f (fun p m -> if m land inside = 0 then push f p reached)

let iter_positions (t : t) (f : int -> unit) (g : Defs.instr array) =
  Array.iter
    (fun i ->
      let p = slot t i in
      if p >= 0 then f p)
    g

(* The closure of the accepted groups, read afresh: after the view
   re-read a rewritten block, or to cover a group that lies below
   [top] (positions [lo, hi]). *)
let rebuild (f : fusion) ~lo ~hi =
  let t = f.deps in
  let lo = ref lo and hi = ref hi in
  for g = 0 to f.ngroups - 1 do
    iter_positions t
      (fun p ->
        lo := min !lo p;
        hi := max !hi p)
      f.groups.(g)
  done;
  f.top <- !hi;
  f.read <- t.rereads;
  f.marks <- Bytes.make (!hi - !lo + 1) '\000';
  t.admit_work <- t.admit_work + words (Bytes.length f.marks);
  f.nwork <- 0;
  for g = 0 to f.ngroups - 1 do
    iter_positions t (fun p -> if mark f p land walked = 0 then push f p reached) f.groups.(g)
  done;
  ignore (spread f);
  settle f inside

(* Whether the group whose members the work list holds as sources, some
   of which the closure holds, closes a cycle through the accepted
   groups: a walk forward through dependences, which enters every
   member of a group as soon as it reaches one (the group is one
   instruction once fused), for a path back to a source.  The accepted
   groups' relation is acyclic, so any cycle runs through the new
   group.  Few admissions get here (those whose group depends on an
   accepted one), and the walk runs through the closure too. *)
let closes (f : fusion) =
  let open_ =
    walk f (fun p _ ->
        push f p reached;
        match Int_table.find_opt f.owner f.deps.instrs.(p).Defs.iid with
        | Some g ->
            iter_positions f.deps
              (fun q -> if mark f q land walked = 0 then push f q reached)
              f.groups.(g)
        | None -> ())
  in
  settle f 0;
  not open_

(* A new group can close a cycle only through itself: when a member
   depends on another member of its own, or through accepted groups.
   When no member lies in the closure (the new group depends on no
   accepted group), neither a path between its members nor one from
   it to the closure can come back, so spreading from its members
   while skipping the closure both checks the first case and adds the
   group to the closure: an admission then costs what the closure
   gains.  Otherwise {!closes} searches. *)
let admit (f : fusion) (group : Defs.value array) : bool =
  let t = f.deps in
  current t;
  let instrs =
    Array.of_list
      (List.filter_map
         (function
           | Defs.Instr i when slot t i >= 0 -> Some i
           | Defs.Instr _ | Defs.Const _ | Defs.Undef _ | Defs.Arg _ -> None)
         (Array.to_list group))
  in
  let accept () =
    if f.ngroups = Array.length f.groups then begin
      let groups = Array.make (max 8 (2 * f.ngroups)) [||] in
      Array.blit f.groups 0 groups 0 f.ngroups;
      f.groups <- groups
    end;
    f.groups.(f.ngroups) <- instrs;
    Array.iter (fun (i : Defs.instr) -> Int_table.replace f.owner i.Defs.iid f.ngroups) instrs;
    t.admit_work <- t.admit_work + Array.length instrs;
    f.ngroups <- f.ngroups + 1;
    true
  in
  if Array.length instrs = 0 then accept ()
  else begin
    let ps = Array.map (slot t) instrs in
    let hi = Array.fold_left max (-1) ps in
    if f.read <> t.rereads || hi > f.top then
      rebuild f ~lo:(Array.fold_left min max_int ps) ~hi;
    let depends = Array.exists (fun p -> mark f p land inside <> 0) ps in
    Array.iter (fun p -> if mark f p land source = 0 then push f p source) ps;
    if depends then
      (not (closes f))
      && begin
        Array.iter (fun p -> if mark f p land inside = 0 then push f p reached) ps;
        ignore (spread f);
        settle f inside;
        accept ()
      end
    else if spread f then begin
      settle f inside;
      accept ()
    end
    else begin
      settle f 0;
      false
    end
  end

let admit_bundle (f : fusion) (group : Defs.instr list) : placement option =
  current f.deps;
  match slide f.deps group with
  | Some _ as place when admit f (Array.of_list (List.map Instr.value group)) -> place
  | Some _ | None -> None

(* The regenerated roots sit where the closure has not been, so it is
   read afresh at the next admission (which re-reads the block first). *)
let replace_last (f : fusion) (group : Defs.value array) =
  let g = f.ngroups - 1 in
  Array.iter (fun (i : Defs.instr) -> Int_table.remove f.owner i.Defs.iid) f.groups.(g);
  f.groups.(g) <- Array.of_list (List.filter_map Value.as_instr (Array.to_list group));
  Array.iter (fun (i : Defs.instr) -> Int_table.replace f.owner i.Defs.iid g) f.groups.(g);
  f.read <- -1

let bundle_placement (t : t) (group : Defs.instr list) = admit_bundle (fusion t) group

let schedulable (t : t) (groups : Defs.value array list) =
  let f = fusion t in
  List.for_all (admit f) groups

(* The memory order of code that replaced scalars of the block.  An
   access stands for the scalars it replaced (an access that replaced
   none, for itself), and two accesses keep the order their
   conflicting scalars had in the block.  The scalars are read where
   they still sit, so this holds after the replacement is emitted and
   before the scalars are unlinked. *)
type order = Unordered | Before | After | Both

let memory_order (t : t) (xs : Defs.instr list) (ys : Defs.instr list) : order =
  List.fold_left
    (fun acc (x : Defs.instr) ->
      match memloc t x with
      | None -> acc
      | Some lx ->
          List.fold_left
            (fun acc (y : Defs.instr) ->
              match memloc t y with
              | Some ly when conflicts x lx y ly -> (
                  let o = if Block.precedes x y then Before else After in
                  match acc with Unordered -> o | _ when acc = o -> acc | _ -> Both)
              | Some _ | None -> acc)
            acc ys)
    Unordered xs
