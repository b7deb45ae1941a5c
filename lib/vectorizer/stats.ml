(* The counters record of one compile.

   Its Multi/Super-Node counters back the paper's Figures 6, 7, 9 and
   10: the number and total size of the nodes formed in *successfully
   vectorized* code.  A node's size is the depth of its trunk — the
   number of chained arithmetic instructions per lane (minimum 2 by
   construction).  Sums over many compiles add records in place
   ([add]), so a long-lived sum never grows. *)

type t = {
  mutable graphs_built : int;
  mutable graphs_vectorized : int;
  mutable nodes_formed : int; (* SLP-graph nodes, all kinds *)
  mutable gathers : int;
  mutable supernodes : int; (* Multi/Super-Nodes in vectorized graphs *)
  mutable supernode_size_total : int; (* their summed trunk depths *)
  mutable vector_instrs_emitted : int;
  mutable scalars_erased : int;
  mutable reductions : int; (* horizontal reductions rewritten *)
  (* Compile-time counters for the memoization layers (look-ahead
     score cache, full dependence constructions vs. re-reads of a
     rewritten block). *)
  mutable lookahead_hits : int;
  mutable lookahead_misses : int;
  mutable deps_builds : int;
  mutable deps_refreshes : int;
  (* Global pack selection (Config.packing = Global): candidate
     enumeration and beam/branch-and-bound search counters.  All four
     are deterministic for a given input+config (the search is
     sequential and float-exact), so they survive the jobs-determinism
     comparison like every other counter. *)
  mutable pack_candidates : int; (* pack candidates enumerated *)
  mutable pack_expansions : int; (* beam states expanded by the solver *)
  mutable pack_pruned : int; (* states cut by the admissible bound or the beam *)
  mutable pack_plans : int; (* plans replayed (empty plan included) *)
  (* Revec re-widening pass (Config.revec): committed bundle pairs and
     the wide instructions they produced. *)
  mutable revec_pairs : int; (* adjacent bundle pairs re-packed wider *)
  mutable revec_widened : int; (* wide instructions emitted by revec *)
  (* Loop passes (Config.unroll): natural loops in the input, how many
     the counted-loop recognizer accepted, full and partial unrolls,
     and straight-line blocks the jam pass fused. *)
  mutable loops_found : int;
  mutable loops_counted : int;
  mutable loops_unrolled_full : int;
  mutable loops_unrolled_partial : int;
  mutable loop_blocks_jammed : int;
  mutable admit_work : int; (* what admissions marked, examined and allocated *)
  phases : float array; (* cumulative self seconds by phase slot, nan where never charged *)
  mutable nested_s : float;
      (* seconds the phases nested in the running one have taken *)
}

(* The vectorizer's timed phases, each with a fixed slot, so the hot
   path hashes no names. *)
type phase =
  | Deps
  | Graph
  | Massage
  | Reorder
  | Cost
  | Codegen
  | Emit
  | Rewire
  | Erase
  | Sched
  | Cg_verify
  | Reduction
  | Pack

let all_phases =
  [| Deps; Graph; Massage; Reorder; Cost; Codegen; Emit; Rewire; Erase; Sched; Cg_verify; Reduction; Pack |]

let phase_name = function
  | Deps -> "deps"
  | Graph -> "graph"
  | Massage -> "massage"
  | Reorder -> "reorder"
  | Cost -> "cost"
  | Codegen -> "codegen"
  | Emit -> "emit"
  | Rewire -> "rewire"
  | Erase -> "erase"
  | Sched -> "sched"
  | Cg_verify -> "cg-verify"
  | Reduction -> "reduction"
  | Pack -> "pack"

let slot = function
  | Deps -> 0
  | Graph -> 1
  | Massage -> 2
  | Reorder -> 3
  | Cost -> 4
  | Codegen -> 5
  | Emit -> 6
  | Rewire -> 7
  | Erase -> 8
  | Sched -> 9
  | Cg_verify -> 10
  | Reduction -> 11
  | Pack -> 12

let create () =
  {
    graphs_built = 0;
    graphs_vectorized = 0;
    nodes_formed = 0;
    gathers = 0;
    supernodes = 0;
    supernode_size_total = 0;
    vector_instrs_emitted = 0;
    scalars_erased = 0;
    reductions = 0;
    lookahead_hits = 0;
    lookahead_misses = 0;
    deps_builds = 0;
    deps_refreshes = 0;
    pack_candidates = 0;
    pack_expansions = 0;
    pack_pruned = 0;
    pack_plans = 0;
    revec_pairs = 0;
    revec_widened = 0;
    loops_found = 0;
    loops_counted = 0;
    loops_unrolled_full = 0;
    loops_unrolled_partial = 0;
    loop_blocks_jammed = 0;
    admit_work = 0;
    phases = Array.make (Array.length all_phases) Float.nan;
    nested_s = 0.0;
  }

(* Charge a block-wide dependence analysis's re-read and admission
   counters; called once, when the block is done with it. *)
let add_deps (t : t) (d : Snslp_analysis.Deps.t) =
  t.deps_refreshes <- t.deps_refreshes + Snslp_analysis.Deps.reread_count d;
  t.admit_work <- t.admit_work + Snslp_analysis.Deps.admission_work d

(* A slot reads nan until a phase is first charged, so a phase never
   timed is told from one that took no time. *)
let add_slot (t : t) k seconds =
  let s = t.phases.(k) in
  t.phases.(k) <- (if Float.is_nan s then seconds else s +. seconds)

let add_phase (t : t) phase seconds = add_slot t (slot phase) seconds

(* Phase timings in a canonical (name-sorted) order. *)
let phases_sorted (t : t) =
  Array.fold_left
    (fun acc phase ->
      let s = t.phases.(slot phase) in
      if Float.is_nan s then acc else (phase_name phase, s) :: acc)
    [] all_phases
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* The one clock of a compile: the OS's monotonic one (CLOCK_MONOTONIC
   via the bechamel stub), in seconds.  [Unix.gettimeofday] is
   wall-clock time, which NTP can step backwards, and an accumulator
   must never ingest a negative sample. *)
let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* [time ?stats phase f] runs [f] and charges its self time to
   [phase]: its elapsed time minus that of the phases nested in it,
   which charge themselves.  The phases of one record thus partition
   the time they cover.  With no stats sink it is just [f ()]. *)
let time ?stats phase f =
  match stats with
  | None -> f ()
  | Some t ->
      let outer = t.nested_s in
      t.nested_s <- 0.0;
      let t0 = now_s () in
      let r = f () in
      let dt = now_s () -. t0 in
      add_phase t phase (dt -. t.nested_s);
      t.nested_s <- outer +. dt;
      r

let hit_rate ~hits ~misses =
  let total = hits + misses in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total

let record_supernode (t : t) ~size =
  t.supernodes <- t.supernodes + 1;
  t.supernode_size_total <- t.supernode_size_total + size

(* Total aggregate node size — the quantity of Figures 6 and 9. *)
let aggregate_supernode_size (t : t) = t.supernode_size_total

let num_supernodes (t : t) = t.supernodes

(* Average node size — Figures 7 and 10. *)
let average_supernode_size (t : t) =
  if t.supernodes = 0 then 0.0
  else float_of_int t.supernode_size_total /. float_of_int t.supernodes

(* [add ~into s] adds every counter and phase of [s] into [into] in
   place, allocating nothing that grows: the record stays as large as
   its phase names.  Integer sums are exact, so adding the items of a
   work list in index order gives the same counters whatever computed
   them, and in whatever order they completed. *)
let add ~(into : t) (s : t) =
  into.graphs_built <- into.graphs_built + s.graphs_built;
  into.graphs_vectorized <- into.graphs_vectorized + s.graphs_vectorized;
  into.nodes_formed <- into.nodes_formed + s.nodes_formed;
  into.gathers <- into.gathers + s.gathers;
  into.supernodes <- into.supernodes + s.supernodes;
  into.supernode_size_total <- into.supernode_size_total + s.supernode_size_total;
  into.vector_instrs_emitted <- into.vector_instrs_emitted + s.vector_instrs_emitted;
  into.scalars_erased <- into.scalars_erased + s.scalars_erased;
  into.reductions <- into.reductions + s.reductions;
  into.lookahead_hits <- into.lookahead_hits + s.lookahead_hits;
  into.lookahead_misses <- into.lookahead_misses + s.lookahead_misses;
  into.deps_builds <- into.deps_builds + s.deps_builds;
  into.deps_refreshes <- into.deps_refreshes + s.deps_refreshes;
  into.pack_candidates <- into.pack_candidates + s.pack_candidates;
  into.pack_expansions <- into.pack_expansions + s.pack_expansions;
  into.pack_pruned <- into.pack_pruned + s.pack_pruned;
  into.pack_plans <- into.pack_plans + s.pack_plans;
  into.revec_pairs <- into.revec_pairs + s.revec_pairs;
  into.revec_widened <- into.revec_widened + s.revec_widened;
  into.loops_found <- into.loops_found + s.loops_found;
  into.loops_counted <- into.loops_counted + s.loops_counted;
  into.loops_unrolled_full <- into.loops_unrolled_full + s.loops_unrolled_full;
  into.loops_unrolled_partial <- into.loops_unrolled_partial + s.loops_unrolled_partial;
  into.loop_blocks_jammed <- into.loop_blocks_jammed + s.loop_blocks_jammed;
  into.admit_work <- into.admit_work + s.admit_work;
  Array.iteri (fun k sec -> if not (Float.is_nan sec) then add_slot into k sec) s.phases

(* Everything except the phase timings, which are wall-clock and so
   never reproducible run to run: both records compare with one empty
   phase array and no pending nesting in place of their own, so a new
   counter field is compared without being listed here. *)
let no_phases = [||]

let equal_counters (a : t) (b : t) =
  let counters t = { t with phases = no_phases; nested_s = 0.0 } in
  counters a = counters b

let pp ppf (t : t) =
  Fmt.pf ppf
    "graphs=%d vectorized=%d nodes=%d gathers=%d supernodes=%d aggregate=%d avg=%.2f \
     reductions=%d lookahead=%d/%d admit=%d deps=%d+%dr \
     pack=%dc/%de/%dp/%dr revec=%dp/%dw"
    t.graphs_built t.graphs_vectorized t.nodes_formed t.gathers (num_supernodes t)
    (aggregate_supernode_size t) (average_supernode_size t) t.reductions
    t.lookahead_hits
    (t.lookahead_hits + t.lookahead_misses)
    t.admit_work t.deps_builds t.deps_refreshes t.pack_candidates t.pack_expansions t.pack_pruned
    t.pack_plans t.revec_pairs t.revec_widened
