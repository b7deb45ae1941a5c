(* SLP graph construction (paper Figure 1 step 3 and Listing 1).

   Starting from a seed group of adjacent stores, [build] follows the
   use-def chains towards definitions, forming a node per operand
   group.  Each node is either vectorizable ([K_vec] for isomorphic
   groups, [K_alt] for same-family mixed opcodes) or terminal
   ([K_gather]/[K_splat], which price the cost of assembling a vector
   from scalar values).

   In [Lslp]/[Snslp] modes, binop groups are first offered to
   {!Supernode.massage}, which may rewrite the underlying IR to expose
   isomorphism before the group is classified — the highlighted "build
   Super-Node" step of Listing 1. *)

open Snslp_ir
open Snslp_analysis

type kind =
  | K_vec (* isomorphic group: binops, consecutive loads, seed stores *)
  | K_alt of Defs.binop array (* same family, mixed opcodes, per lane *)
  | K_perm of int array
      (* a lane permutation of an already-vectorized node (the single
         child): one shufflevector reuses its vector *)
  | K_gather
  | K_splat

type node = {
  nid : int;
  scalars : Defs.value array;
  kind : kind;
  mutable children : node array; (* by operand index; empty for leaves *)
  mutable vec : Defs.value option; (* filled in by codegen *)
  mutable at_first : bool;
      (* memory bundles only: schedule the vector instruction at the
         first member's position instead of the last one *)
}

(* Tables keyed by a group of scalars: the group's own array, lane by
   lane under {!Value.equal}.  A group array is never written once it
   is built.  An instruction lane hashes as its id, so a lookup makes
   no generic hash call for a group of instructions. *)
module Group = Hashtbl.Make (struct
  type t = Defs.value array

  let equal a b = Array.length a = Array.length b && Array.for_all2 Value.equal a b

  let lane = function Defs.Instr i -> i.Defs.iid | v -> Value.hash v
  let hash a = Int_table.hash (Array.fold_left (fun h v -> (31 * h) + lane v) 0 a)
end)

(* Operand-reorder strategy for commutative groups.  [R_chain] is the
   legacy greedy left-to-right chain (LLVM's
   reorderInputsAccordingToOpcode, look-ahead upgraded); the global
   pack selector also tries [R_exhaustive], the look-ahead-scored
   argmax over all per-lane swap assignments (lane 0 included, which
   the chain never reconsiders).  Ties keep the chain's choice, so
   exhaustive only ever departs when its total score is strictly
   higher. *)
type reorder = R_chain | R_exhaustive

type t = {
  config : Config.t;
  func : Defs.func;
  block : Defs.block;
  reorder : reorder;
  stats : Stats.t option; (* phase-timing sink, when the caller profiles *)
  deps : Deps.t; (* the caller's block-wide analysis *)
  admitted : Deps.fusion; (* the tree's vector groups so far *)
  mutable nodes : node list; (* creation order, root first *)
  mutable root : node option;
  mutable next_id : int;
  claimed : node Int_table.t; (* iid -> vectorized node that owns it *)
  by_group : node Group.t; (* scalars -> the node built for them *)
  no_remassage : unit Int_table.t; (* trunk iids of built Super-Nodes *)
  mutable supernode_sizes : int list; (* pending stats, committed on acceptance *)
  lookahead_cache : Lookahead.cache; (* the caller's memo *)
}

let nodes (t : t) = List.rev t.nodes
let root (t : t) = match t.root with Some r -> r | None -> invalid_arg "Graph.root"

let lanes (n : node) = Array.length n.scalars

(* Kinds whose scalars are *replaced* by a vector instruction (and so
   are claimed, erased, and extract-priced).  [K_perm] produces a
   vector but owns no scalars — they belong to the permuted node. *)
let is_vectorizable_kind = function
  | K_vec | K_alt _ -> true
  | K_perm _ | K_gather | K_splat -> false

let is_claimed (t : t) (i : Defs.instr) = Int_table.mem t.claimed i.Defs.iid

let new_node (t : t) ?(children = [||]) kind scalars =
  let n = { nid = t.next_id; scalars; kind; children; vec = None; at_first = false } in
  t.next_id <- t.next_id + 1;
  t.nodes <- n :: t.nodes;
  Group.replace t.by_group scalars n;
  if is_vectorizable_kind kind then
    Array.iter
      (fun v ->
        match v with
        | Defs.Instr i -> Int_table.replace t.claimed i.Defs.iid n
        | Defs.Const _ | Defs.Undef _ | Defs.Arg _ -> ())
      scalars;
  n

(* --- Operand reordering for commutative groups ------------------------ *)

(* Per-lane operand order for a group of binops.  Vanilla SLP uses the
   shallow opcode-matching swap; LSLP and SN-SLP use the look-ahead
   score (this is the "standard feature" reordering of the paper's
   footnote 2, upgraded by LSLP).  Non-commutative lanes (sub, div)
   keep their order.

   Scoring scope: lane k is scored only against lane k−1's CHOSEN
   order — a greedy left-to-right chain, not a global optimum over all
   2^lanes assignments.  This matches LLVM's
   reorderInputsAccordingToOpcode (and LSLP's look-ahead upgrade of
   it): each lane commits before the next is examined, so a bad early
   choice is never revisited. *)
let reorder_operands (t : t) (instrs : Defs.instr array) :
    Defs.value array * Defs.value array =
  let lanes = Array.length instrs in
  let op0 = Array.make lanes instrs.(0).Defs.ops.(0) in
  let op1 = Array.make lanes instrs.(0).Defs.ops.(1) in
  let commutative (i : Defs.instr) =
    match i.Defs.op with Defs.Binop bop -> Defs.is_commutative bop | _ -> false
  in
  (* Scoring is only ever invoked for a commutative lane at index ≥ 1;
     when there is none — e.g. a pure sub/div group under Vanilla —
     every lane keeps its operand order and the score machinery
     (shallow matching included) is skipped outright. *)
  let any_commutative = ref false in
  for k = 1 to lanes - 1 do
    if commutative instrs.(k) then any_commutative := true
  done;
  if not !any_commutative then
    for k = 1 to lanes - 1 do
      op0.(k) <- instrs.(k).Defs.ops.(0);
      op1.(k) <- instrs.(k).Defs.ops.(1)
    done
  else begin
    let depth =
      match t.config.Config.mode with
      | Config.Vanilla -> 0 (* shallow matching only *)
      | Config.Lslp | Config.Snslp -> t.config.Config.lookahead_depth
    in
    let score = Lookahead.score ~cache:t.lookahead_cache ~depth in
    for k = 1 to lanes - 1 do
      let i = instrs.(k) in
      let a = i.Defs.ops.(0) and b = i.Defs.ops.(1) in
      if commutative i then begin
        let aligned = score op0.(k - 1) a + score op1.(k - 1) b in
        let crossed = score op0.(k - 1) b + score op1.(k - 1) a in
        if crossed > aligned then begin
          op0.(k) <- b;
          op1.(k) <- a
        end
        else begin
          op0.(k) <- a;
          op1.(k) <- b
        end
      end
      else begin
        op0.(k) <- a;
        op1.(k) <- b
      end
    done;
    (* [R_exhaustive]: re-derive the assignment as a global argmax of
       the same objective the chain optimizes lane by lane — the sum
       of look-ahead scores between consecutive lanes of both operand
       vectors — over every per-lane swap of the commutative lanes,
       lane 0 included.  The chain's result is one point of that
       space, taken as the incumbent, so exhaustive is never worse
       under the objective and ties reproduce the chain exactly. *)
    if t.reorder = R_exhaustive then begin
      let swappable = ref [] in
      for k = lanes - 1 downto 0 do
        if commutative instrs.(k) then swappable := k :: !swappable
      done;
      let sw = Array.of_list !swappable in
      let ns = Array.length sw in
      if ns >= 1 && ns <= 10 then begin
        let objective o0 o1 =
          let total = ref 0 in
          for k = 1 to lanes - 1 do
            total := !total + score o0.(k - 1) o0.(k) + score o1.(k - 1) o1.(k)
          done;
          !total
        in
        let best = ref (objective op0 op1) in
        let c0 = Array.make lanes op0.(0) in
        let c1 = Array.make lanes op1.(0) in
        for mask = 0 to (1 lsl ns) - 1 do
          for k = 0 to lanes - 1 do
            c0.(k) <- instrs.(k).Defs.ops.(0);
            c1.(k) <- instrs.(k).Defs.ops.(1)
          done;
          Array.iteri
            (fun bit k ->
              if mask land (1 lsl bit) <> 0 then begin
                c0.(k) <- instrs.(k).Defs.ops.(1);
                c1.(k) <- instrs.(k).Defs.ops.(0)
              end)
            sw;
          let o = objective c0 c1 in
          if o > !best then begin
            best := o;
            Array.blit c0 0 op0 0 lanes;
            Array.blit c1 0 op1 0 lanes
          end
        done
      end
    end
  end;
  (op0, op1)

(* --- Node construction ------------------------------------------------- *)

let all_distinct_instrs (vals : Defs.value array) : Defs.instr array option =
  let n = Array.length vals in
  let out = Array.make n None in
  let ok = ref true in
  Array.iteri
    (fun k v ->
      match v with
      | Defs.Instr i ->
          for j = 0 to k - 1 do
            match out.(j) with
            | Some pj when Instr.equal pj i -> ok := false
            | _ -> ()
          done;
          out.(k) <- Some i
      | Defs.Const _ | Defs.Undef _ | Defs.Arg _ -> ok := false)
    vals;
  if !ok then Some (Array.map Option.get out) else None

let all_same_value (vals : Defs.value array) =
  Array.for_all (fun v -> Value.equal v vals.(0)) vals

let in_block (t : t) (i : Defs.instr) =
  match i.Defs.iblock with Some b -> Block.equal b t.block | None -> false

let binop_kinds (instrs : Defs.instr array) : Defs.binop array option =
  let kinds =
    Array.map (fun i -> match i.Defs.op with Defs.Binop b -> Some b | _ -> None) instrs
  in
  if Array.for_all Option.is_some kinds then Some (Array.map Option.get kinds) else None

let same_tys (instrs : Defs.instr array) =
  Array.for_all (fun i -> Ty.equal i.Defs.ty instrs.(0).Defs.ty) instrs

(* The main recursion: one call per candidate group, returns the node
   representing the group. *)
let rec build_group (t : t) (vals : Defs.value array) : node =
  match Group.find_opt t.by_group vals with
  | Some n -> n
  | None -> (
      if all_same_value vals then new_node t K_splat vals
      else
        match all_distinct_instrs vals with
        | None -> new_node t K_gather vals
        | Some instrs ->
            if
              Array.exists (fun i -> not (in_block t i)) instrs
              || not (same_tys instrs)
            then new_node t K_gather vals
            else if Array.exists (is_claimed t) instrs then
              (* Some scalar already lives in another vector.  If the
                 whole group is a lane permutation of one vectorized
                 node, a single shuffle reuses that vector; otherwise
                 gather. *)
              match permutation_of_claimed t vals instrs with
              | Some (src, mask) ->
                  let n = new_node t (K_perm mask) vals in
                  n.children <- [| src |];
                  n
              | None -> new_node t K_gather vals
            else build_instr_group t vals instrs)

and permutation_of_claimed (t : t) (vals : Defs.value array) (instrs : Defs.instr array)
    : (node * int array) option =
  match Int_table.find_opt t.claimed instrs.(0).Defs.iid with
  | None -> None
  | Some src ->
      if Array.length src.scalars <> Array.length vals then None
      else begin
        let mask = Array.make (Array.length vals) (-1) in
        let ok = ref true in
        Array.iteri
          (fun lane v ->
            let found = ref (-1) in
            Array.iteri
              (fun j s -> if !found < 0 && Value.equal s v then found := j)
              src.scalars;
            if !found < 0 || Array.exists (Int.equal !found) mask then ok := false
            else mask.(lane) <- !found)
          vals;
        if !ok then Some (src, mask) else None
      end

and build_instr_group (t : t) (vals : Defs.value array) (instrs : Defs.instr array) : node
    =
  let gather () = new_node t K_gather vals in
  match binop_kinds instrs with
  | Some kinds -> build_binop_group t vals instrs kinds
  | None ->
      if Array.for_all Instr.is_load instrs then
        let addrs = List.filter_map Address.of_instr (Array.to_list instrs) in
        let forward = Address.consecutive addrs in
        if List.length addrs < Array.length instrs || not (forward || Address.consecutive (List.rev addrs))
        then gather ()
        else
          match Deps.admit_bundle t.admitted (Array.to_list instrs) with
          | None -> gather ()
          | Some place ->
              (* Reverse-consecutive: canonicalise as a shuffle of the
                 forward-order vector load, so a later request for the
                 forward order shares the load. *)
              let lanes = Array.length vals in
              let fwd = new_node t K_vec (if forward then vals else Array.init lanes (fun k -> vals.(lanes - 1 - k))) in
              fwd.at_first <- place = Deps.At_first;
              if forward then fwd
              else begin
                let n = new_node t (K_perm (Array.init lanes (fun k -> lanes - 1 - k))) vals in
                n.children <- [| fwd |];
                n
              end
      else if Array.for_all (fun (j : Defs.instr) -> Instr.same_opcode j instrs.(0)) instrs
      then
        match instrs.(0).Defs.op with
        | Defs.Select when Deps.admit t.admitted vals ->
            (* Blend: vector select over vectorized condition and
               arms (what if-conversion output needs). *)
            let node = new_node t K_vec vals in
            let child k =
              build_group t (Array.map (fun (j : Defs.instr) -> j.Defs.ops.(k)) instrs)
            in
            let c0 = child 0 in
            let c1 = child 1 in
            let c2 = child 2 in
            node.children <- [| c0; c1; c2 |];
            node
        | (Defs.Icmp _ | Defs.Fcmp _) when Deps.admit t.admitted vals ->
            let node = new_node t K_vec vals in
            let child k =
              build_group t (Array.map (fun (j : Defs.instr) -> j.Defs.ops.(k)) instrs)
            in
            let c0 = child 0 in
            let c1 = child 1 in
            node.children <- [| c0; c1 |];
            node
        | _ ->
            (* Geps, inserts, extracts, shuffles … are not vectorized
               further by this implementation. *)
            gather ()
      else gather ()

and build_binop_group (t : t) (vals : Defs.value array) (instrs : Defs.instr array)
    (kinds : Defs.binop array) : node =
  let gather () = new_node t K_gather vals in
  let fam = Family.of_binop kinds.(0) in
  let elem = Ty.elem instrs.(0).Defs.ty in
  let same_family =
    Array.for_all (fun k -> Family.of_binop k = fam) kinds && Family.allowed_on fam elem
  in
  let uniform0 = Array.for_all (fun k -> k = kinds.(0)) kinds in
  if (not uniform0) && not same_family then
    (* Mixed opcodes across families never vectorize. *)
    gather ()
  else if not (Deps.admit t.admitted vals) then gather ()
  else begin
    (* Offer the group to the Super-Node machinery (Listing 1 line 12).
       The massage may rewrite the IR; it returns the group's new root
       instructions, which take the admitted group's place. *)
    let instrs, kinds =
      if
        t.config.Config.mode = Config.Vanilla
        || (not same_family)
        || Array.for_all (fun i -> Int_table.mem t.no_remassage i.Defs.iid) instrs
      then (instrs, kinds)
      else
        match
          Stats.time ?stats:t.stats Stats.Massage (fun () ->
              Supernode.massage ~cache:t.lookahead_cache t.config t.func instrs)
        with
        | None -> (instrs, kinds)
        | Some r ->
            t.supernode_sizes <- r.Supernode.size :: t.supernode_sizes;
            (* A reordering massage rewrote the block: drop the
               look-ahead memo, whose entries describe the pre-massage
               operand DAG.  The dependence analysis notices the edit
               itself. *)
            if r.Supernode.reordered then begin
              Lookahead.cache_clear t.lookahead_cache;
              Deps.replace_last t.admitted (Array.map Instr.value r.Supernode.new_roots)
            end;
            Array.iter
              (fun (root : Defs.instr) ->
                let rec mark (i : Defs.instr) =
                  Int_table.replace t.no_remassage i.Defs.iid ();
                  match i.Defs.ops.(0) with
                  | Defs.Instr j when Instr.is_binop j && not (Int_table.mem t.no_remassage j.Defs.iid)
                    ->
                      (* Only the freshly generated left-leaning spine
                         is protected; stop at leaves. *)
                      if
                        List.length (Func.uses_of t.func (Defs.Instr j)) = 1
                        && (match j.Defs.op with
                           | Defs.Binop b -> Family.of_binop b = fam
                           | _ -> false)
                      then mark j
                  | _ -> ()
                in
                mark root)
              r.Supernode.new_roots;
            let kinds' =
              Array.map
                (fun (i : Defs.instr) ->
                  match i.Defs.op with Defs.Binop b -> b | _ -> assert false)
                r.Supernode.new_roots
            in
            (r.Supernode.new_roots, kinds')
    in
    let vals = Array.map Instr.value instrs in
    let uniform = Array.for_all (fun k -> k = kinds.(0)) kinds in
    let node =
      if uniform then new_node t K_vec vals else new_node t (K_alt kinds) vals
    in
    let op0, op1 =
      Stats.time ?stats:t.stats Stats.Reorder (fun () -> reorder_operands t instrs)
    in
    let c0 = build_group t op0 in
    let c1 = build_group t op1 in
    node.children <- [| c0; c1 |];
    node
  end

let vector_groups (t : t) =
  List.filter_map (fun n -> if is_vectorizable_kind n.kind then Some n.scalars else None) (nodes t)

(* --- Entry point -------------------------------------------------------- *)

(* [build config func block seed] builds the SLP graph rooted at the
   seed group of adjacent stores.  Returns [None] when the seed cannot
   even be bundled.

   [~deps] is the caller's block-wide dependence analysis, shared
   across consecutive seeds of the same block; it re-reads the block
   by itself after a rewrite, a massage inside the build or codegen
   between seeds.

   [~cache] is the caller's look-ahead memo — in the vectorizer
   driver, one per run, shared by every seed of the function.  The
   caller is responsible for clearing it whenever the IR is rewritten
   outside this graph build (massage rewrites inside the build already
   clear it); entries are keyed by per-function instruction ids. *)
let build ?stats ~deps ~cache ?(reorder = R_chain) (config : Config.t) (func : Defs.func)
    (block : Defs.block) (seed : Defs.instr list) : t option =
  let t =
    {
      config;
      func;
      block;
      reorder;
      stats;
      deps;
      admitted = Deps.fusion deps;
      nodes = [];
      root = None;
      next_id = 0;
      claimed = Int_table.create 64;
      by_group = Group.create 64;
      no_remassage = Int_table.create 16;
      supernode_sizes = [];
      lookahead_cache = cache;
    }
  in
  let instrs = Array.of_list seed in
  let addrs = Array.to_list (Array.map Address.of_instr instrs) in
  let consecutive =
    List.for_all Option.is_some addrs
    && Address.consecutive (List.map Option.get addrs)
  in
  let placement =
    if Array.length instrs < 2 || (not (Array.for_all Instr.is_store instrs)) || not consecutive
    then None
    else Deps.admit_bundle t.admitted seed
  in
  match placement with
  | None -> None
  | Some place ->
    let node = new_node t K_vec (Array.map Instr.value instrs) in
    node.at_first <- place = Deps.At_first;
    t.root <- Some node;
    let value_group = Array.map (fun (i : Defs.instr) -> i.Defs.ops.(0)) instrs in
    let child = build_group t value_group in
    node.children <- [| child |];
    Some t

let pp_node ppf (n : node) =
  let kind =
    match n.kind with
    | K_vec -> "vec"
    | K_perm mask ->
        "perm["
        ^ String.concat " " (Array.to_list (Array.map string_of_int mask))
        ^ "]"
    | K_alt ops ->
        "alt[" ^ String.concat " " (Array.to_list (Array.map Defs.binop_to_string ops)) ^ "]"
    | K_gather -> "gather"
    | K_splat -> "splat"
  in
  Fmt.pf ppf "n%d:%s{%a}" n.nid kind
    (Fmt.array ~sep:(Fmt.any ", ") (fun ppf v -> Fmt.string ppf (Value.name v)))
    n.scalars

let pp_nodes ppf nodes =
  List.iter
    (fun n ->
      Fmt.pf ppf "%a -> [%a]@." pp_node n
        (Fmt.array ~sep:(Fmt.any ", ") (fun ppf c -> Fmt.pf ppf "n%d" c.nid))
        n.children)
    nodes

let pp ppf (t : t) = pp_nodes ppf (nodes t)
