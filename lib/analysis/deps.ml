(* Intra-block dependence analysis.

   SLP needs two queries: (i) may groups of instructions each be fused
   into one instruction (legal iff contracting every group leaves the
   dependences acyclic; for one group, iff no member transitively
   depends on another), asked one group at a time as a tree is built,
   against the groups accepted before it, and (ii) where a memory
   bundle may be scheduled (the slide rules).  The first reads one
   closure: the reachability of the window the instructions span.

   Register dependences come from use-def edges.  Memory dependences
   use the alias model of KernelC: distinct array parameters never
   alias (they are `restrict`); accesses to the same base alias unless
   their affine index ranges provably do not overlap.  Loads commute
   with loads; all other may-overlapping pairs are ordered.

   Every dependence edge points backward in program order (defs
   precede uses, memory order follows block order), so any dependence
   path between two instructions stays inside their position window.
   The analysis exploits that: construction is O(block) and each query
   builds reachability only for the window it spans, which keeps whole
   -function vectorization near-linear on large blocks. *)

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
  mutable reach_cache : ((int * int) * int array) list;
      (* recently built reachability windows, newest first *)
  mutable reach_hits : int;
  mutable reach_misses : int;
  mutable rereads : int;
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
      reach_cache = [];
      reach_hits = 0;
      reach_misses = 0;
      rereads = 0;
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
   from scratch.  The reachability cache is position-based and must
   be dropped. *)
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
  t.reach_cache <- [];
  t.rereads <- t.rereads + 1;
  t.stamp <- Block.stamp t.block

(* Every query starts here. *)
let current (t : t) = if t.stamp <> Block.stamp t.block then t.time (fun () -> reread t)

let reach_stats (t : t) = (t.reach_hits, t.reach_misses)
let reread_count (t : t) = t.rereads

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

(* Reachability over the window [lo, hi], as bit rows: row [k] is the
   set of window positions (as offsets from [lo]) that position
   [lo + k] transitively depends on, [row_words w] ints of
   {!word_bits} bits each, rows laid out one after another in one
   array.  O(w²) bits of state, built in one forward sweep — windows
   are the span of one SLP tree, not the block. *)
let word_bits = 62

let row_words w = (w + word_bits - 1) / word_bits

let compute_reachability (t : t) ~lo ~hi =
  let w = hi - lo + 1 in
  let nw = row_words w in
  let reach = Array.make (w * nw) 0 in
  let add_edge src dst =
    (* dst depends on src; src < dst within the window.  Row [src]
       holds only positions before [src], so its words past
       [src / word_bits] are zero. *)
    let s = src * nw and d = dst * nw in
    let last = src / word_bits in
    reach.(d + last) <- reach.(d + last) lor (1 lsl (src mod word_bits));
    for k = 0 to last do
      reach.(d + k) <- reach.(d + k) lor reach.(s + k)
    done
  in
  for dst = 0 to w - 1 do
    let ops = t.instrs.(lo + dst).Defs.ops in
    (* Register edges. *)
    for k = 0 to Array.length ops - 1 do
      match ops.(k) with
      | Defs.Instr d ->
          let dp = slot t d in
          if dp >= lo && dp < lo + dst then add_edge (dp - lo) dst
      | Defs.Const _ | Defs.Undef _ | Defs.Arg _ -> ()
    done;
    (* Memory edges, nearest first: an access the row already reaches
       through a nearer one adds nothing to it, so it is not checked. *)
    if t.memlocs.(lo + dst) <> None then
      for src = dst - 1 downto 0 do
        if
          t.memlocs.(lo + src) <> None
          && (reach.((dst * nw) + (src / word_bits)) lsr (src mod word_bits)) land 1 = 0
          && conflict t (lo + src) (lo + dst)
        then add_edge src dst
      done
  done;
  reach

(* One graph build issues many legality queries over overlapping
   windows (every candidate group of one tree spans roughly the same
   region), so recent matrices are kept and served for any
   sub-window.  Soundness of sub-window reuse: every dependence edge
   points backward in program order, so a path between two positions
   of [lo, hi] never leaves [lo, hi] — the restriction of a wider
   window's reachability equals the narrow window's own.  A view
   re-bases offsets relative to the queried [lo] into the possibly
   wider cached matrix. *)
type view = { base : int; words : int; (* per row *) mat : int array }

let max_cached_windows = 8

let window_reach (t : t) ~lo ~hi =
  match List.find_opt (fun ((l, h), _) -> l <= lo && h >= hi) t.reach_cache with
  | Some ((l, h), mat) ->
      t.reach_hits <- t.reach_hits + 1;
      { base = lo - l; words = row_words (h - l + 1); mat }
  | None ->
      t.reach_misses <- t.reach_misses + 1;
      let mat = compute_reachability t ~lo ~hi in
      let rec take n = function
        | [] -> []
        | e :: rest -> if n = 0 then [] else e :: take (n - 1) rest
      in
      t.reach_cache <- ((lo, hi), mat) :: take (max_cached_windows - 1) t.reach_cache;
      { base = 0; words = row_words (hi - lo + 1); mat }

let reaches (v : view) ~src ~dst =
  let src = src + v.base in
  let word = v.mat.(((dst + v.base) * v.words) + (src / word_bits)) in
  (word lsr (src mod word_bits)) land 1 = 1

(* [depends t ~on i] holds when [i] transitively depends on [on]. *)
let depends (t : t) ~(on : Defs.instr) (i : Defs.instr) =
  current t;
  let po = position t on and pi = position t i in
  if po >= pi then false
  else
    let r = window_reach t ~lo:po ~hi:pi in
    reaches r ~src:0 ~dst:(pi - po)

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
      (* Membership array over the window: the [List.mem] it replaces
         made the sweep O(w × |group|). *)
      let in_group = Array.make (hi - lo + 1) false in
      List.iter (fun p -> in_group.(p - lo) <- true) members;
      let legal ~down =
        let ok = ref true in
        for p = lo + 1 to hi - 1 do
          if (not in_group.(p - lo)) && t.memlocs.(p) <> None then begin
            let blocked mp =
              (* Sliding down passes instructions after the member;
                 sliding up passes those before it. *)
              (if down then mp < p else mp > p) && conflict t mp p
            in
            if List.exists blocked members then ok := false
          end
        done;
        !ok
      in
      if legal ~down:true then Some At_last
      else if legal ~down:false then Some At_first
      else None

(* The groups accepted so far, newest first. *)
type fusion = { deps : t; mutable groups : Defs.instr array list }

let fusion (t : t) = { deps = t; groups = [] }

(* The accepted groups' relation is acyclic, so a new group can close a
   cycle only through itself: when a member depends on another member
   of its own, or when a depth-first search along the relation, from
   the new group, reaches a group the new group depends on.  A group
   that depends on no accepted group has nothing to search.  The
   relation is read off the window of all members, which every path
   between them stays in; edits move positions, never a dependence
   between members. *)
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
  let lo = ref max_int and hi = ref min_int in
  let span =
    Array.iter (fun i ->
        let p = slot t i in
        if p >= 0 then begin
          lo := min !lo p;
          hi := max !hi p
        end)
  in
  span instrs;
  List.iter span f.groups;
  let lo = !lo and hi = !hi in
  let accept () =
    f.groups <- instrs :: f.groups;
    true
  in
  (* No pair of members, nothing to read. *)
  if Array.length instrs = 0 || lo = hi then accept ()
  else begin
    let r = window_reach t ~lo ~hi in
    (* Whether one of [members] depends on an instruction: the union of
       their rows. *)
    let depended_on members =
      let u = Array.make r.words 0 in
      Array.iter
        (fun i ->
          let p = slot t i in
          if p >= 0 then
            for k = 0 to r.words - 1 do
              u.(k) <- u.(k) lor r.mat.(((p - lo + r.base) * r.words) + k)
            done)
        members;
      fun i ->
        let p = slot t i in
        p >= 0
        &&
        let c = p - lo + r.base in
        (u.(c / word_bits) lsr (c mod word_bits)) land 1 = 1
    in
    let by_new = depended_on instrs in
    let is_pred g = Array.exists by_new g in
    if Array.exists by_new instrs then false
    else if not (List.exists is_pred f.groups) then accept ()
    else begin
      let groups = List.map (fun g -> (g, depended_on g, ref false)) f.groups in
      let rec closes members =
        List.exists
          (fun (g, by_g, seen) ->
            (not !seen) && Array.exists by_g members
            && begin
              seen := true;
              is_pred g || closes g
            end)
          groups
      in
      (not (closes instrs)) && accept ()
    end
  end

let admit_bundle (f : fusion) (group : Defs.instr list) : placement option =
  current f.deps;
  match slide f.deps group with
  | Some _ as place when admit f (Array.of_list (List.map Instr.value group)) -> place
  | Some _ | None -> None

let replace_last (f : fusion) (group : Defs.value array) =
  let instrs = Array.of_list (List.filter_map Value.as_instr (Array.to_list group)) in
  f.groups <- instrs :: List.tl f.groups

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
