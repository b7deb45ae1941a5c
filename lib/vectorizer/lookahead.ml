(* Look-ahead operand scoring, as introduced by LSLP.

   [score a b] estimates how well two scalar values pair up in
   adjacent vector lanes, looking through their operands up to a small
   depth.  Consecutive loads score highest — they become a single
   vector load; identical values splat; isomorphic instructions score
   by opcode match and recurse. *)

open Snslp_ir
open Snslp_analysis

(* Shallow score constants, in the spirit of LSLP / LLVM's
   getShallowScore. *)
let score_consecutive_loads = 4
let score_reversed_loads = 1
let score_splat = 3
let score_constants = 2
let score_same_opcode = 2
let score_alt_opcodes = 1
let score_fail = 0

(* [addr] computes a load's address: {!Address.of_instr}, or the
   memoized scorer's cached copy of it. *)
let shallow_with ~addr (a : Defs.value) (b : Defs.value) : int =
  if Value.equal a b then score_splat
  else
    match (a, b) with
    | Defs.Const _, Defs.Const _ -> score_constants
    | Defs.Instr ia, Defs.Instr ib -> (
        match (ia.Defs.op, ib.Defs.op) with
        | Defs.Load, Defs.Load -> (
            match (addr ia, addr ib) with
            | Some aa, Some ab -> (
                match Address.delta aa ab with
                | Some 1 -> score_consecutive_loads
                | Some -1 -> score_reversed_loads
                | Some _ -> score_fail
                | None -> score_fail)
            | _ -> score_fail)
        | Defs.Binop ba, Defs.Binop bb ->
            if ba = bb then score_same_opcode
            else if Family.same_family ba bb then
              (* Same family: still vectorizable, as an alternating
                 node. *)
              score_alt_opcodes
            else score_fail
        | _ -> if Instr.same_opcode ia ib then score_same_opcode else score_fail)
    | _ -> score_fail

let shallow = shallow_with ~addr:Address.of_instr

(* One recursion step of the look-ahead: shallow score plus the best
   pairing of operands, with sub-scores obtained through [self] so the
   memoized and reference implementations share one body.  For
   commutative operations both operand orders are tried; the better
   one is kept. *)
let step ~self ~addr ~depth (a : Defs.value) (b : Defs.value) : int =
  let s = shallow_with ~addr a b in
  if depth <= 0 || s = score_fail then s
  else
    match (a, b) with
    | Defs.Instr ia, Defs.Instr ib -> (
        match (ia.Defs.op, ib.Defs.op) with
        | Defs.Binop ba, Defs.Binop _ when Array.length ia.Defs.ops = 2 ->
            let a0 = ia.Defs.ops.(0) and a1 = ia.Defs.ops.(1) in
            let b0 = ib.Defs.ops.(0) and b1 = ib.Defs.ops.(1) in
            let aligned = self ~depth:(depth - 1) a0 b0 + self ~depth:(depth - 1) a1 b1 in
            let crossed =
              if Defs.is_commutative ba then
                self ~depth:(depth - 1) a0 b1 + self ~depth:(depth - 1) a1 b0
              else aligned
            in
            s + max aligned crossed
        | _ -> s)
    | _ -> s

(* Memoization over (instruction, instruction, depth).  Only
   instruction pairs are cached: they are the sole recursive case of
   [step] and the only expensive shallow one (consecutive-load
   detection computes affine addresses); every other pair is a cheap
   O(1) shallow score, for which a table lookup would cost more than
   the computation.  The key is ORDERED, not normalized: [score] is
   directional (consecutive loads score {!score_consecutive_loads}
   one way and {!score_reversed_loads} the other), so [(a, b)] and
   [(b, a)] are distinct entries.  The cache is only valid while the
   operand DAG under the scored values is unchanged — the graph
   builder clears it whenever Super-Node massaging rewrites the IR.
   A miss on a pair of loads needs both addresses, an affine walk
   each; the cache keeps every load's address under the same
   validity rule. *)
type cache = {
  tbl : int Int_table.t; (* packed (iid, iid, depth) -> score *)
  addrs : Address.t option Int_table.t; (* load iid -> address *)
  mutable hits : int;
  mutable misses : int;
}

let cache_create () =
  { tbl = Int_table.create 512; addrs = Int_table.create 64; hits = 0; misses = 0 }

(* Invalidate the entries, keep the hit/miss counters (they feed the
   per-run statistics). *)
let cache_clear (c : cache) =
  Int_table.reset c.tbl;
  Int_table.reset c.addrs

let cached_addr (c : cache) (i : Defs.instr) =
  match Int_table.find_opt c.addrs i.Defs.iid with
  | Some a -> a
  | None ->
      let a = Address.of_instr i in
      Int_table.add c.addrs i.Defs.iid a;
      a

let cache_stats (c : cache) = (c.hits, c.misses)

(* Both iids and the depth packed into one immediate int: 27 + 27 + 8
   = 62 bits, within OCaml's 63-bit native int.  Instruction ids are
   unique per function and depths are tiny, so the bounds below are
   unreachable in practice; a pair outside them is simply not cached.
   The depth takes the low bits, where a table finds its bucket, so
   the memo needs {!Int_table}'s mixing hash: with the key as its own
   hash most entries would share a few buckets. *)
let max_packed_iid = 1 lsl 27
let max_packed_depth = 256
let pack ia ib depth = (((ia lsl 27) lor ib) lsl 8) lor depth

let rec score ?cache ~depth (a : Defs.value) (b : Defs.value) : int =
  match cache with
  | None -> step ~self:(fun ~depth a b -> score ~depth a b) ~addr:Address.of_instr ~depth a b
  | Some c -> (
      match (a, b) with
      | Defs.Instr ia, Defs.Instr ib
        when ia.Defs.iid < max_packed_iid
             && ib.Defs.iid < max_packed_iid
             && depth >= 0
             && depth < max_packed_depth -> (
          let k = pack ia.Defs.iid ib.Defs.iid depth in
          match Int_table.find_opt c.tbl k with
          | Some s ->
              c.hits <- c.hits + 1;
              s
          | None ->
              c.misses <- c.misses + 1;
              let s = step_cached c ~depth a b in
              Int_table.add c.tbl k s;
              s)
      | _ -> step_cached c ~depth a b)

and step_cached c ~depth a b =
  step ~self:(fun ~depth a b -> score ~cache:c ~depth a b) ~addr:(cached_addr c) ~depth a b

(* Sum of pairwise scores of consecutive lanes — the group score used
   to compare candidate operand groups (Listing 2, line 14). *)
let group_score ?cache ~depth (vals : Defs.value list) : int =
  let rec go = function
    | a :: (b :: _ as rest) -> score ?cache ~depth a b + go rest
    | [ _ ] | [] -> 0
  in
  go vals
