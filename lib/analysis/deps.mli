(** Intra-block dependence analysis and bundle-scheduling legality.

    Register dependences come from use-def edges; memory dependences
    from the alias model (distinct array parameters never alias,
    same-base accesses alias unless their affine ranges provably do
    not overlap).  Every edge joins an earlier position to a later
    one, so a dependence path between two instructions stays inside
    their position window.  Reading the block is O(block); every query
    walks forward through dependences, up to the highest position it
    concerns, and finds memory edges through the block's accesses by
    class (argument and element type; one class for every other base),
    so an access meets only the accesses it may conflict with.  Fusion
    legality ({!admit} and what is built on it) keeps one closure per
    {!fusion}: the positions that depend on an accepted group. *)

open Snslp_ir

type memloc = { addr : Address.t; width : int (** elements *) }

val memloc_of_instr : Defs.instr -> memloc option
val may_overlap : memloc -> memloc -> bool

val conflicts : Defs.instr -> memloc -> Defs.instr -> memloc -> bool
(** [conflicts a la b lb]: the accesses [a] (reading or writing [la])
    and [b] must keep their order — their ranges may overlap and at
    least one of them writes. *)

type t
(** The analysis of one block.  It notices edits of the block by
    itself: every query first compares the block's edit stamp
    ({!Snslp_ir.Block.stamp}) with the one it last read, and when the
    stamp moved it re-reads the block — positions are re-indexed,
    instructions it had read keep their memory summary (massaging
    never rewrites a load/store address operand), and the accesses by
    class are read again when next needed.  An analysis belongs to the
    domain that built it; a re-read from another domain raises
    [Invalid_argument]. *)

val of_block : ?time:((unit -> unit) -> unit) -> Defs.block -> t
(** Reads the block: its instructions' positions and memory
    summaries.  [time] runs each later re-read (by default it just
    runs it), so a caller can charge re-reads to its own timer
    wherever a query triggers them. *)

val memloc : t -> Defs.instr -> memloc option
(** The memory summary of an instruction: the one the analysis read,
    or {!memloc_of_instr} for an instruction it has not read.  A
    summary does not depend on positions, so this query never
    re-reads the block. *)

val reread_count : t -> int
(** Re-reads of the block since construction. *)

val admission_work : t -> int
(** The work admissions on this analysis did since construction:
    each position an admission marks, each user and access its walks
    and slides examine, each member it accepts, and the words of every
    array it allocates for its closure. *)

val depends : t -> on:Defs.instr -> Defs.instr -> bool
(** [depends t ~on i]: [i] transitively depends on [on]; a walk
    forward from [on] that stops at [i]'s position. *)

type placement =
  | At_last (** bundle at the last member's position; others slide down *)
  | At_first (** bundle at the first member's position; others slide up *)

(** How two accesses must be ordered once vector code replaced scalars
    of the block: each stands for the scalars it replaced, and every
    pair of {!conflicts}ing scalars keeps its order in the block. *)
type order =
  | Unordered (** no pair of their scalars conflicts *)
  | Before (** the first access's scalars come first in every conflicting pair *)
  | After (** the second's come first in every conflicting pair *)
  | Both (** the pairs disagree: no order keeps them all *)

val memory_order : t -> Defs.instr list -> Defs.instr list -> order
(** [memory_order t xs ys]: the order of an access standing for the
    scalars [xs] against one standing for [ys].  The scalars must
    still be linked in [t]'s block; never re-reads it. *)

type fusion
(** The groups of the block's instructions accepted so far for fusion
    into one instruction each.  Group [g] must precede group [h] when a
    member of [h] depends on a member of [g]; admission keeps that
    relation acyclic. *)

val fusion : t -> fusion
(** No group accepted yet. *)

val admit : fusion -> Defs.value array -> bool
(** [admit f group]: whether [group] (disjoint from the accepted ones;
    other values than block instructions are ignored) can be fused
    along with the accepted groups, which then include it.  It cannot
    when a member depends on another member (the one-group case), or
    when it must both follow and precede accepted groups: a cycle can
    run through different lanes of two groups that each pass alone. *)

val admit_bundle : fusion -> Defs.instr list -> placement option
(** {!admit} of a memory bundle, which also needs a slide direction
    that passes no conflicting access; [None], and nothing accepted,
    when either fails. *)

val replace_last : fusion -> Defs.value array -> unit
(** The group accepted last now consists of these instructions, lane
    for lane: a Super-Node massage regenerated it from the same
    operands and gave it the old instructions' users. *)

val bundle_placement : t -> Defs.instr list -> placement option
(** {!admit_bundle} into a fresh {!fusion}. *)

val schedulable : t -> Defs.value array list -> bool
(** [schedulable t groups]: the block can still be ordered once every
    group is fused into one instruction — {!admit} of each in turn
    into a fresh {!fusion}, which refuses one exactly when the groups
    so far close a cycle. *)
