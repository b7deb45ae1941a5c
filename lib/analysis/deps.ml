(* Intra-block dependence analysis.

   SLP needs two queries: (i) may a set of instructions be fused into
   one bundle (legal iff no member transitively depends on another and
   the memory slide rules hold) and (ii) where such a bundle may be
   scheduled.

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

type t = {
  mutable instrs : Defs.instr array; (* block order *)
  index : (int, int) Hashtbl.t; (* iid -> position *)
  mutable memlocs : memloc option array;
  mutable reach_cache : ((int * int) * Bytes.t array) list;
      (* recently built reachability windows, newest first *)
  mutable reach_hits : int;
  mutable reach_misses : int;
  mutable refreshes : int;
  owner : int;
      (* Domain.id of the constructing domain.  A Deps.t is a bundle
         of unsynchronized mutable caches: under the parallel driver
         every instance is domain-local by construction, and [refresh]
         asserts it stayed that way. *)
}

let self_id () = (Domain.self () :> int)

let assert_owner (t : t) =
  if t.owner <> self_id () then
    invalid_arg "Deps: instance refreshed from a domain other than its owner"

let of_block (b : Defs.block) : t =
  let instrs = Array.of_list (Block.instrs b) in
  let index = Hashtbl.create (2 * Array.length instrs) in
  Array.iteri (fun pos i -> Hashtbl.replace index i.Defs.iid pos) instrs;
  {
    instrs;
    index;
    memlocs = Array.map memloc_of_instr instrs;
    reach_cache = [];
    reach_hits = 0;
    reach_misses = 0;
    refreshes = 0;
    owner = self_id ();
  }

(* Re-analyse after the Super-Node machinery rewrote the block: new
   positions and memory summaries without recomputing the affine
   address of every surviving access.  Massaging regenerates
   arithmetic chains but never rewrites a load/store address operand,
   so an instruction that keeps its id keeps its [memloc]; only the
   freshly inserted instructions are summarised from scratch.  The
   reachability cache is position-based and must be dropped. *)
let refresh (t : t) (b : Defs.block) =
  assert_owner t;
  let instrs = Array.of_list (Block.instrs b) in
  let memlocs =
    Array.map
      (fun (i : Defs.instr) ->
        match Hashtbl.find_opt t.index i.Defs.iid with
        | Some p -> t.memlocs.(p)
        | None -> memloc_of_instr i)
      instrs
  in
  Hashtbl.reset t.index;
  Array.iteri (fun pos (i : Defs.instr) -> Hashtbl.replace t.index i.Defs.iid pos) instrs;
  t.instrs <- instrs;
  t.memlocs <- memlocs;
  t.reach_cache <- [];
  t.refreshes <- t.refreshes + 1

let reach_stats (t : t) = (t.reach_hits, t.reach_misses)
let refresh_count (t : t) = t.refreshes

(* The analysed memory summary of [i], when [i] was part of the block
   at analysis time; [None] for instructions inserted since.  Lets
   post-rewrite consumers (codegen rescheduling) reuse the affine
   address computations instead of redoing them per instruction. *)
let known_memloc (t : t) (i : Defs.instr) : memloc option option =
  match Hashtbl.find_opt t.index i.Defs.iid with
  | Some p -> Some t.memlocs.(p)
  | None -> None

let position (t : t) (i : Defs.instr) =
  match Hashtbl.find_opt t.index i.Defs.iid with
  | Some p -> p
  | None -> invalid_arg "Deps.position: instruction not in analysed block"

(* Conflicting pair: at least one writes and the ranges may overlap. *)
let conflict (t : t) a b =
  match (t.memlocs.(a), t.memlocs.(b)) with
  | Some la, Some lb ->
      (Instr.writes_memory t.instrs.(a) || Instr.writes_memory t.instrs.(b))
      && may_overlap la lb
  | _ -> false

(* Reachability over the window [lo, hi]: [reach.(k)] is the set of
   window positions (as offsets from [lo]) that position [lo + k]
   transitively depends on.  O(w²) bits of state, built in one forward
   sweep — windows are the span of one SLP tree, not the block. *)
let compute_reachability (t : t) ~lo ~hi =
  let w = hi - lo + 1 in
  let reach = Array.init w (fun _ -> Bytes.make w '\000') in
  let add_edge src dst =
    (* dst depends on src; src < dst within the window *)
    Bytes.set reach.(dst) src '\001';
    let rsrc = reach.(src) in
    let rdst = reach.(dst) in
    for k = 0 to w - 1 do
      if Bytes.get rsrc k = '\001' then Bytes.set rdst k '\001'
    done
  in
  for dst = 0 to w - 1 do
    let i = t.instrs.(lo + dst) in
    (* Register edges. *)
    Array.iter
      (fun o ->
        match o with
        | Defs.Instr d -> (
            match Hashtbl.find_opt t.index d.Defs.iid with
            | Some dp when dp >= lo && dp < lo + dst -> add_edge (dp - lo) dst
            | _ -> ())
        | Defs.Const _ | Defs.Undef _ | Defs.Arg _ -> ())
      i.Defs.ops;
    (* Memory edges. *)
    if t.memlocs.(lo + dst) <> None then
      for src = 0 to dst - 1 do
        if t.memlocs.(lo + src) <> None && conflict t (lo + src) (lo + dst) then
          add_edge src dst
      done
  done;
  reach

(* One graph build issues many legality queries over overlapping
   windows (every candidate group of one tree spans roughly the same
   region), so recent matrices are kept and served for any
   sub-window.  Soundness of sub-window reuse: every dependence edge
   points backward in program order, so a path between two positions
   of [lo, hi] never leaves [lo, hi] — the restriction of a wider
   window's reachability equals the narrow window's own.  The view is
   [(base, matrix)]: offsets relative to the queried [lo] are
   re-based by [base] into the possibly wider cached matrix. *)
let max_cached_windows = 8

let window_reach (t : t) ~lo ~hi =
  match List.find_opt (fun ((l, h), _) -> l <= lo && h >= hi) t.reach_cache with
  | Some ((l, _), mat) ->
      t.reach_hits <- t.reach_hits + 1;
      (lo - l, mat)
  | None ->
      t.reach_misses <- t.reach_misses + 1;
      let mat = compute_reachability t ~lo ~hi in
      let rec take n = function
        | [] -> []
        | e :: rest -> if n = 0 then [] else e :: take (n - 1) rest
      in
      t.reach_cache <- ((lo, hi), mat) :: take (max_cached_windows - 1) t.reach_cache;
      (0, mat)

let reaches ((base, mat) : int * Bytes.t array) ~src ~dst =
  Bytes.get mat.(dst + base) (src + base) = '\001'

let group_window (t : t) (group : Defs.instr list) =
  let positions = List.map (position t) group in
  (List.fold_left min max_int positions, List.fold_left max min_int positions)

(* [depends t ~on i] holds when [i] transitively depends on [on]. *)
let depends (t : t) ~(on : Defs.instr) (i : Defs.instr) =
  let po = position t on and pi = position t i in
  if po >= pi then false
  else
    let r = window_reach t ~lo:po ~hi:pi in
    reaches r ~src:0 ~dst:(pi - po)

(* A group can be bundled into one vector instruction only if no
   member depends on another. *)
let independent_group (t : t) (group : Defs.instr list) =
  match group with
  | [] | [ _ ] -> true
  | _ ->
      let lo, hi = group_window t group in
      let r = window_reach t ~lo ~hi in
      let offsets = List.map (fun i -> position t i - lo) group in
      let rec pairs = function
        | [] -> true
        | x :: rest ->
            List.for_all
              (fun y ->
                let a = min x y and b = max x y in
                not (reaches r ~src:a ~dst:b))
              rest
            && pairs rest
      in
      pairs offsets

(* Where a memory bundle may be scheduled: fused at the last member's
   position (every other member slides down) or at the first member's
   position (members slide up).  A slide is legal only when the member
   passes no conflicting instruction.  Stores naturally fuse at the
   bottom, loads at the top; both directions are tried. *)
type placement = At_last | At_first

let bundle_placement_memory (t : t) (group : Defs.instr list) : placement option =
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

(* Full legality of fusing [group] into one bundle; returns the chosen
   placement. *)
let bundle_placement (t : t) (group : Defs.instr list) : placement option =
  if independent_group t group then bundle_placement_memory t group else None

let can_bundle (t : t) (group : Defs.instr list) = bundle_placement t group <> None
