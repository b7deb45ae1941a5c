(** Natural-loop analysis: dominance back-edges, the loop-nest forest,
    counted-loop recognition and trip counts, plus the region-cloning
    helper the unroll pass is built on. *)

open Snslp_ir

module Int_set : Set.S with type elt = int

type loop = {
  header : Defs.block;
  latches : Defs.block list;  (** sources of back edges to [header] *)
  blocks : Defs.block list;  (** the natural loop, in function block order *)
  block_ids : Int_set.t;
  hpreds : Defs.block list;
      (** the header's CFG predecessors, as {!Dominance.predecessors}
          lists them when the loop is found *)
  mutable parent : loop option;
  mutable children : loop list;
  mutable depth : int;  (** 1 = top-level *)
}

type forest = {
  loops : loop list;  (** every loop of the function *)
  roots : loop list;  (** top-level loops *)
}

val analyze : Defs.func -> forest
(** Natural loops from dominance back-edges (an edge [b -> h] with [h]
    dominating [b]); loops sharing a header merge, containment builds
    the forest. *)

val mem : loop -> Defs.block -> bool
val num_blocks : loop -> int
val num_instrs : loop -> int

type counted = {
  loop : loop;
  preheader : Defs.block;
      (** unique outside predecessor; ends in [Br header] *)
  latch : Defs.block;  (** the single back-edge source *)
  body_entry : Defs.block;  (** taken target of the header's cond_br *)
  exit : Defs.block;  (** fall-through target, outside the loop *)
  iv : Defs.instr;  (** the induction-variable phi *)
  init : Defs.value;  (** incoming from the preheader *)
  next : Defs.instr;  (** [iv +/- step], incoming from the latch *)
  step : int64;  (** signed; never 0 *)
  cmp : Defs.cmp;  (** continue while [iv cmp bound] *)
  cond : Defs.instr;  (** the header icmp *)
  bound : Defs.value;  (** loop-invariant comparison right-hand side *)
}

val recognize : loop -> (counted * bool, string) result
(** The counted-loop recognizer for the canonical rotated form the
    frontend emits: [preheader -> header(phi; icmp; cond_br) -> body..
    -> latch -> header], the header the only exit, an integer iv
    stepped by a non-zero constant (possibly through a chain of
    constant adds) and a loop-invariant bound.  [Error reason] names
    the first unsupported feature (multiple latches, non-affine step,
    loop-variant bound, multi-exit, ...).  [Ok (c, strict)]: the loop
    is executable by a symbolic interpreter, and [strict] holds when
    it also meets what the transforms need — innermost, one phi in
    the whole loop, no value used outside it, a [Br]-terminated
    preheader, a phi-free exit, an icmp feeding only the branch, and
    a single-step increment.  When [strict] is false, [preheader] is
    merely the unique outside predecessor; its terminator may be
    conditional. *)

val as_counted : loop -> counted option
(** The strict loops of {!recognize}: the only ones the transforms
    touch. *)

val trip_count : counted -> int option
(** Number of body executions when init and bound are both integer
    constants: the recurrence is stepped with the interpreter's
    wraparound semantics, so the count is exact even across Int64
    overflow.  [None] when symbolic or beyond {!trip_count_cap}. *)

val trip_count_cap : int

val monotone : counted -> bool
(** Whether the step strictly approaches the bound's failing side
    (Lt/Le with positive step, Gt/Ge with negative): the legality
    condition for partial unrolling's adjusted-bound guard. *)

val clone_region :
  Defs.func ->
  Defs.block list ->
  suffix:string ->
  ?map_value:(Defs.value -> Defs.value) ->
  ?into:Defs.block list ref ->
  unit ->
  (int, Defs.block) Hashtbl.t * (int, Defs.instr) Hashtbl.t
(** Clone an ordered subset of the function's blocks into fresh blocks
    appended to it ([suffix] is appended to block and instruction
    names); with [into], the clones are pushed onto that list, newest
    first, for the caller to append in one go.  Operands resolving to region instructions map to their
    clones; all other operands go through [map_value] (default:
    identity).  Branch targets and phi-payload predecessors inside the
    region are redirected to the clones, outside targets are kept.
    Returns the (bid -> clone block) and (iid -> clone instr) maps. *)
