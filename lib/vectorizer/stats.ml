(* Vectorization statistics.

   These back the paper's Figures 6, 7, 9 and 10: the number and size
   of Multi/Super-Nodes formed in *successfully vectorized* code.  A
   node's size is the depth of its trunk — the number of chained
   arithmetic instructions per lane (minimum 2 by construction). *)

type t = {
  mutable graphs_built : int;
  mutable graphs_vectorized : int;
  mutable nodes_formed : int; (* SLP-graph nodes, all kinds *)
  mutable gathers : int;
  mutable supernode_sizes : int list;
      (* trunk depth of every Multi/Super-Node in vectorized graphs *)
  mutable vector_instrs_emitted : int;
  mutable scalars_erased : int;
  mutable reductions : int; (* horizontal reductions rewritten *)
  (* Compile-time counters for the memoization layers (look-ahead
     score cache, dependence reachability windows, full dependence
     constructions vs. in-place refreshes). *)
  mutable lookahead_hits : int;
  mutable lookahead_misses : int;
  mutable reach_hits : int;
  mutable reach_misses : int;
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
  phases : (string, float) Hashtbl.t; (* cumulative seconds per phase *)
}

let create () =
  {
    graphs_built = 0;
    graphs_vectorized = 0;
    nodes_formed = 0;
    gathers = 0;
    supernode_sizes = [];
    vector_instrs_emitted = 0;
    scalars_erased = 0;
    reductions = 0;
    lookahead_hits = 0;
    lookahead_misses = 0;
    reach_hits = 0;
    reach_misses = 0;
    deps_builds = 0;
    deps_refreshes = 0;
    pack_candidates = 0;
    pack_expansions = 0;
    pack_pruned = 0;
    pack_plans = 0;
    revec_pairs = 0;
    revec_widened = 0;
    phases = Hashtbl.create 8;
  }

(* Charge a block-wide dependence analysis's reachability-window and
   refresh counters; called once, when the block is done with it. *)
let add_deps (t : t) (d : Snslp_analysis.Deps.t) =
  let h, m = Snslp_analysis.Deps.reach_stats d in
  t.reach_hits <- t.reach_hits + h;
  t.reach_misses <- t.reach_misses + m;
  t.deps_refreshes <- t.deps_refreshes + Snslp_analysis.Deps.refresh_count d

let add_phase (t : t) name seconds =
  match Hashtbl.find_opt t.phases name with
  | Some s -> Hashtbl.replace t.phases name (s +. seconds)
  | None -> Hashtbl.add t.phases name seconds

let phase_seconds (t : t) name =
  match Hashtbl.find_opt t.phases name with Some s -> s | None -> 0.0

(* Phase timings in a canonical (name-sorted) order, so anything that
   prints or merges them is independent of hash-table layout. *)
let phases_sorted (t : t) =
  Hashtbl.fold (fun n s acc -> (n, s) :: acc) t.phases []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* [time ?stats name f] runs [f] and charges its elapsed time to phase
   [name]; with no stats sink it is just [f ()].  The clock is the
   OS's monotonic one (CLOCK_MONOTONIC via the bechamel stub):
   [Unix.gettimeofday] is wall-clock time, which NTP can step
   backwards, and a phase accumulator must never ingest a negative
   sample. *)
let now_ns () = Monotonic_clock.now ()

let time ?stats name f =
  match stats with
  | None -> f ()
  | Some t ->
      let t0 = now_ns () in
      let r = f () in
      add_phase t name (Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9);
      r

let hit_rate ~hits ~misses =
  let total = hits + misses in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total

let record_supernode (t : t) ~size = t.supernode_sizes <- size :: t.supernode_sizes

(* Total aggregate node size — the quantity of Figures 6 and 9. *)
let aggregate_supernode_size (t : t) = List.fold_left ( + ) 0 t.supernode_sizes

let num_supernodes (t : t) = List.length t.supernode_sizes

(* Average node size — Figures 7 and 10. *)
let average_supernode_size (t : t) =
  match t.supernode_sizes with
  | [] -> 0.0
  | l -> float_of_int (List.fold_left ( + ) 0 l) /. float_of_int (List.length l)

(* [merge a b] is deterministic in its arguments only — counters add,
   [a]'s supernode sizes precede [b]'s, phases accumulate by name —
   so a fold over per-work-item stats in work-item index order yields
   the same value no matter which domain computed which item, or in
   what order they completed. *)
let merge (a : t) (b : t) =
  let phases = Hashtbl.create 8 in
  let add (n, s) =
    match Hashtbl.find_opt phases n with
    | Some s' -> Hashtbl.replace phases n (s' +. s)
    | None -> Hashtbl.add phases n s
  in
  List.iter add (phases_sorted a);
  List.iter add (phases_sorted b);
  {
    graphs_built = a.graphs_built + b.graphs_built;
    graphs_vectorized = a.graphs_vectorized + b.graphs_vectorized;
    nodes_formed = a.nodes_formed + b.nodes_formed;
    gathers = a.gathers + b.gathers;
    supernode_sizes = a.supernode_sizes @ b.supernode_sizes;
    vector_instrs_emitted = a.vector_instrs_emitted + b.vector_instrs_emitted;
    scalars_erased = a.scalars_erased + b.scalars_erased;
    reductions = a.reductions + b.reductions;
    lookahead_hits = a.lookahead_hits + b.lookahead_hits;
    lookahead_misses = a.lookahead_misses + b.lookahead_misses;
    reach_hits = a.reach_hits + b.reach_hits;
    reach_misses = a.reach_misses + b.reach_misses;
    deps_builds = a.deps_builds + b.deps_builds;
    deps_refreshes = a.deps_refreshes + b.deps_refreshes;
    pack_candidates = a.pack_candidates + b.pack_candidates;
    pack_expansions = a.pack_expansions + b.pack_expansions;
    pack_pruned = a.pack_pruned + b.pack_pruned;
    pack_plans = a.pack_plans + b.pack_plans;
    revec_pairs = a.revec_pairs + b.revec_pairs;
    revec_widened = a.revec_widened + b.revec_widened;
    phases;
  }

(* Everything except the phase timings, which are wall-clock and so
   never reproducible run to run. *)
let equal_counters (a : t) (b : t) =
  a.graphs_built = b.graphs_built
  && a.graphs_vectorized = b.graphs_vectorized
  && a.nodes_formed = b.nodes_formed
  && a.gathers = b.gathers
  && a.supernode_sizes = b.supernode_sizes
  && a.vector_instrs_emitted = b.vector_instrs_emitted
  && a.scalars_erased = b.scalars_erased
  && a.reductions = b.reductions
  && a.lookahead_hits = b.lookahead_hits
  && a.lookahead_misses = b.lookahead_misses
  && a.reach_hits = b.reach_hits
  && a.reach_misses = b.reach_misses
  && a.deps_builds = b.deps_builds
  && a.deps_refreshes = b.deps_refreshes
  && a.pack_candidates = b.pack_candidates
  && a.pack_expansions = b.pack_expansions
  && a.pack_pruned = b.pack_pruned
  && a.pack_plans = b.pack_plans
  && a.revec_pairs = b.revec_pairs
  && a.revec_widened = b.revec_widened

let pp ppf (t : t) =
  Fmt.pf ppf
    "graphs=%d vectorized=%d nodes=%d gathers=%d supernodes=%d aggregate=%d avg=%.2f \
     reductions=%d lookahead=%d/%d reach=%d/%d deps=%d+%dr \
     pack=%dc/%de/%dp/%dr revec=%dp/%dw"
    t.graphs_built t.graphs_vectorized t.nodes_formed t.gathers (num_supernodes t)
    (aggregate_supernode_size t) (average_supernode_size t) t.reductions
    t.lookahead_hits
    (t.lookahead_hits + t.lookahead_misses)
    t.reach_hits
    (t.reach_hits + t.reach_misses)
    t.deps_builds t.deps_refreshes t.pack_candidates t.pack_expansions t.pack_pruned
    t.pack_plans t.revec_pairs t.revec_widened

let pp_phases ppf (t : t) =
  Fmt.pf ppf "%a"
    (Fmt.list ~sep:(Fmt.any " ") (fun ppf (n, s) -> Fmt.pf ppf "%s=%.1fus" n (s *. 1e6)))
    (phases_sorted t)
