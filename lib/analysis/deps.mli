(** Intra-block dependence analysis and bundle-scheduling legality.

    Register dependences come from use-def edges; memory dependences
    from the alias model (distinct array parameters never alias,
    same-base accesses alias unless their affine ranges provably do
    not overlap).  All edges point backward in program order, so any
    dependence path between two instructions stays inside their
    position window — construction is O(block), queries O(window²)
    bits: a window's reachability matrix is one bit row per position,
    packed 62 bits to an [int]. *)

open Snslp_ir

type memloc = { addr : Address.t; width : int (** elements *) }

val memloc_of_instr : Defs.instr -> memloc option
val may_overlap : memloc -> memloc -> bool

type t = {
  mutable instrs : Defs.instr array; (** block order *)
  index : (int, int) Hashtbl.t;
  mutable memlocs : memloc option array;
  mutable reach_cache : ((int * int) * int array) list;
      (** recent reachability windows [(lo, hi)], newest first: one
          bit row per position, 62 bits per [int] word *)
  mutable reach_hits : int;
  mutable reach_misses : int;
  mutable refreshes : int;
  owner : int;
      (** [Domain.id] of the constructing domain.  The analysis is a
          bundle of unsynchronized mutable caches, so an instance is
          owned by the domain that built it; {!refresh} asserts the
          caller is that domain. *)
}

val of_block : Defs.block -> t
(** Analyses the block; reachability queries are served from the
    most recently built windows, any sub-window included. *)

val refresh : t -> Defs.block -> unit
(** Re-analyse in place after instructions were inserted/erased within
    the block (Super-Node massaging): positions are recomputed, but
    surviving instructions keep their memory summary — massaging never
    rewrites a load/store address operand — so only fresh instructions
    pay for affine address analysis.  Drops the reachability cache. *)

val reach_stats : t -> int * int
(** Reachability-window cache (hits, misses) since construction. *)

val refresh_count : t -> int

val known_memloc : t -> Defs.instr -> memloc option option
(** The analysed memory summary of an instruction that was part of
    the block at analysis time; [None] for instructions inserted
    since.  Lets post-rewrite consumers reuse the affine address
    computations. *)

val position : t -> Defs.instr -> int
(** Raises [Invalid_argument] for instructions outside the analysed
    block. *)

val depends : t -> on:Defs.instr -> Defs.instr -> bool
(** [depends t ~on i]: [i] transitively depends on [on]. *)

val independent_group : t -> Defs.instr list -> bool
(** No member depends on another — necessary to fuse the group into
    one vector instruction. *)

type placement =
  | At_last (** bundle at the last member's position; others slide down *)
  | At_first (** bundle at the first member's position; others slide up *)

val bundle_placement : t -> Defs.instr list -> placement option
(** Full bundling legality: member independence plus a legal slide
    direction for the memory operations ([None] when neither direction
    avoids reordering against a conflicting access). *)

val can_bundle : t -> Defs.instr list -> bool
