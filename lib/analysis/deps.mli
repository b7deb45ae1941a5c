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

type t
(** The analysis of one block.  It notices edits of the block by
    itself: every query first compares the block's edit stamp
    ({!Snslp_ir.Block.stamp}) with the one it last read, and when the
    stamp moved it re-reads the block — positions are re-indexed,
    instructions it had read keep their memory summary (massaging
    never rewrites a load/store address operand), and the cached
    reachability windows are dropped.  An analysis belongs to the
    domain that built it; a re-read from another domain raises
    [Invalid_argument]. *)

val of_block : ?time:((unit -> unit) -> unit) -> Defs.block -> t
(** Analyses the block; reachability queries are served from the
    most recently built windows, any sub-window included.  [time]
    runs each later re-read (by default it just runs it), so a caller
    can charge re-reads to its own timer wherever a query triggers
    them. *)

val memloc : t -> Defs.instr -> memloc option
(** The memory summary of an instruction: the one the analysis read,
    or {!memloc_of_instr} for an instruction it has not read.  A
    summary does not depend on positions, so this query never
    re-reads the block. *)

val reach_stats : t -> int * int
(** Reachability-window cache (hits, misses) since construction. *)

val reread_count : t -> int
(** Re-reads of the block since construction. *)

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
