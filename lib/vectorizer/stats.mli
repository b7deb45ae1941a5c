(** The counters record of a compile, backing the paper's Figures
    6/7/9/10.

    A Multi/Super-Node's size is the depth of its trunk — the number
    of chained arithmetic instructions per lane (minimum 2).  Sizes
    count only for graphs that were actually vectorized, as the paper
    measures them.

    One record serves one compile: the vectorizer fills it, the
    pipeline adds the revec and loop counters, and [snslpc], [snslpd]
    and the bench all read it.  Whoever sums compiles adds records
    into one accumulator with {!add}; nothing copies one. *)

type t = {
  mutable graphs_built : int;
  mutable graphs_vectorized : int;
  mutable nodes_formed : int;
  mutable gathers : int;
  mutable supernodes : int;  (** Multi/Super-Nodes in vectorized graphs *)
  mutable supernode_size_total : int;  (** their summed trunk depths *)
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
  mutable loops_found : int;  (** loops: natural loops in the input *)
  mutable loops_counted : int;
      (** loops: of which the counted-loop recognizer accepted *)
  mutable loops_unrolled_full : int;
      (** loops: fully unrolled, loop gone and no phi left *)
  mutable loops_unrolled_partial : int;
      (** loops: partially unrolled, an epilogue loop remains *)
  mutable loop_blocks_jammed : int;
      (** loops: straight-line blocks fused by the jam pass *)
  phases : (string, float) Hashtbl.t;
      (** cumulative self seconds per vectorizer phase (see {!time}) *)
  mutable nested_s : float;
      (** {!time}'s bookkeeping: seconds the phases nested in the
          running one have taken *)
}

val create : unit -> t
val record_supernode : t -> size:int -> unit

val add_deps : t -> Snslp_analysis.Deps.t -> unit
(** Adds a dependence analysis's reachability-window hits/misses and
    refresh count; call once per analysis, when its block is done. *)

val add_phase : t -> string -> float -> unit
(** O(1) accumulation into the phase table. *)

val phases_sorted : t -> (string * float) list
(** The phase timings in name order — the canonical emission order,
    independent of hash-table layout. *)

val now_s : unit -> float
(** The OS monotonic clock in seconds: the one clock every timer of
    a compile, the service's latencies and the bench read.  Unlike
    wall-clock time it never steps backwards. *)

val time : ?stats:t -> string -> (unit -> 'a) -> 'a
(** [time ?stats name f] runs [f] and, when a stats sink is given,
    charges phase [name] its self time: its elapsed {!now_s} time
    minus that of the phases nested in it on the same record.  The
    phases of a record thus partition the time they cover, and sum to
    no more than the pass that ran them. *)

val hit_rate : hits:int -> misses:int -> float
(** Fraction of queries served from a cache; 0 when it was never
    consulted. *)

val aggregate_supernode_size : t -> int
(** Figures 6 and 9. *)

val num_supernodes : t -> int

val average_supernode_size : t -> float
(** Figures 7 and 10. *)

val add : into:t -> t -> unit
(** [add ~into s] adds every counter and phase of [s] into [into] in
    place; [s] is not modified.  [into] keeps a fixed size however
    many records are added, and any grouping of the adds gives the
    same counters, with [create ()] adding nothing — so the parallel
    driver's sum in work-item index order is independent of domain
    scheduling. *)

val equal_counters : t -> t -> bool
(** Equality on everything except the phase timings (wall-clock, never
    reproducible).  What the jobs-determinism test compares. *)

val pp : t Fmt.t
