(** Vectorization statistics, backing the paper's Figures 6/7/9/10.

    A Multi/Super-Node's size is the depth of its trunk — the number
    of chained arithmetic instructions per lane (minimum 2).  Sizes
    count only for graphs that were actually vectorized, as the paper
    measures them. *)

type t = {
  mutable graphs_built : int;
  mutable graphs_vectorized : int;
  mutable nodes_formed : int;
  mutable gathers : int;
  mutable supernode_sizes : int list;
  mutable vector_instrs_emitted : int;
  mutable scalars_erased : int;
  mutable reductions : int;
  mutable lookahead_hits : int;
  mutable lookahead_misses : int;
  mutable reach_hits : int;
  mutable reach_misses : int;
  mutable deps_builds : int;
      (** full {!Snslp_analysis.Deps.of_block} constructions *)
  mutable deps_refreshes : int;
      (** in-place {!Snslp_analysis.Deps.refresh} calls *)
  mutable pack_candidates : int;
      (** global packing: candidates enumerated *)
  mutable pack_expansions : int;
      (** global packing: beam states expanded *)
  mutable pack_pruned : int;
      (** global packing: states cut by the bound or the beam *)
  mutable pack_plans : int;
      (** global packing: plans replayed (empty plan included) *)
  mutable revec_pairs : int;
      (** revec: adjacent bundle pairs re-packed into wider registers *)
  mutable revec_widened : int;
      (** revec: wide instructions emitted *)
  phases : (string, float) Hashtbl.t;
      (** cumulative monotonic-clock seconds per vectorizer phase *)
}

val create : unit -> t
val record_supernode : t -> size:int -> unit

val add_deps : t -> Snslp_analysis.Deps.t -> unit
(** Adds a dependence analysis's reachability-window hits/misses and
    refresh count; call once per analysis, when its block is done. *)

val add_phase : t -> string -> float -> unit
(** O(1) accumulation into the phase table. *)

val phase_seconds : t -> string -> float

val phases_sorted : t -> (string * float) list
(** The phase timings in name order — the canonical emission order,
    independent of hash-table layout. *)

val time : ?stats:t -> string -> (unit -> 'a) -> 'a
(** [time ?stats name f] runs [f], charging its elapsed time to phase
    [name] when a stats sink is given.  Reads the OS monotonic clock,
    not wall-clock time, so samples can never be negative. *)

val hit_rate : hits:int -> misses:int -> float
(** Fraction of queries served from a cache; 0 when it was never
    consulted. *)

val aggregate_supernode_size : t -> int
(** Figures 6 and 9. *)

val num_supernodes : t -> int

val average_supernode_size : t -> float
(** Figures 7 and 10. *)

val merge : t -> t -> t
(** Deterministic in its arguments only: counters add, [a]'s
    supernode sizes precede [b]'s, phases accumulate by name.
    Associative, with [create ()] as identity — the parallel driver
    folds per-work-item stats in work-item index order, which makes
    the merged value independent of domain scheduling. *)

val equal_counters : t -> t -> bool
(** Equality on everything except the phase timings (wall-clock, never
    reproducible).  What the jobs-determinism test compares. *)

val pp : t Fmt.t
val pp_phases : t Fmt.t
