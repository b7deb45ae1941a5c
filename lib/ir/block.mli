(** Operations over basic blocks.

    A block's instructions form an intrusive doubly-linked list, so
    {!append}, {!insert_before}, {!remove}, {!mem} and {!precedes} are
    O(1).  Each attached instruction carries an order key
    ([Defs.instr.iorder]) that increases strictly along its block;
    keys are gapped, and an insertion that finds no gap renumbers the
    smallest sufficiently sparse key range around it (amortised
    O(log n) per insertion, the whole block at worst). *)

type t = Defs.block

val equal : t -> t -> bool
val name : t -> string

val instrs : t -> Defs.instr list
(** The instructions in execution order, as a fresh list (O(length)).
    Hot readers walk the list with {!iter}, {!fold}, {!first} and
    [inext] instead. *)

val to_array : t -> Defs.instr array
(** The instructions in execution order, as a fresh array. *)

val first : t -> Defs.instr option
val last : t -> Defs.instr option
val terminator : t -> Defs.terminator
val set_terminator : t -> Defs.terminator -> unit

val length : t -> int
(** O(1). *)

val stamp : t -> int
(** The block's edit stamp.  Linking an instruction into the block,
    unlinking one from it and {!Instr.set_operand} on an attached one
    each increase it, so two equal readings mean neither the
    instruction order nor any operand changed in between.  Analyses
    that cache a view of the block compare it to know when to
    re-read. *)

val iter : (Defs.instr -> unit) -> t -> unit
(** In execution order.  The successor is read before the function
    runs, so it may remove the instruction it is given, but nothing
    else. *)

val fold : ('a -> Defs.instr -> 'a) -> 'a -> t -> 'a

val mem : t -> Defs.instr -> bool
(** Whether the instruction is attached to this block, O(1). *)

val precedes : Defs.instr -> Defs.instr -> bool
(** [precedes a b]: [a] comes before [b], for two instructions of the
    same block, by order key. *)

val append : t -> Defs.instr -> unit
(** Appends a detached instruction (asserts it is in no block). *)

val insert_before : t -> anchor:Defs.instr -> Defs.instr -> unit

val remove : t -> Defs.instr -> unit
(** Detaches the instruction; raises [Invalid_argument] if it is not a
    member.  Its operand uses stay registered, so it can be
    re-inserted elsewhere (code motion).  It keeps its last order
    key. *)

val discard_if : t -> (Defs.instr -> bool) -> unit
(** Detach every instruction satisfying the predicate and unregister
    its operand uses, in one traversal.  For instructions that are
    gone for good (DCE, rewriting passes) — not for code motion. *)

val relink : t -> ?before:Defs.instr -> Defs.instr list -> unit
(** [relink b ?before order] moves the listed instructions, in the
    order given, to sit just before [before] (at the end of the block
    when absent), in O(length of [order]) plus renumbering.  Raises
    [Invalid_argument], moving nothing, when an instruction is not a
    member or is listed twice, or when [before] is not a member or is
    listed. *)

val reorder : t -> Defs.instr list -> unit
(** Replaces the whole instruction order.  The new order must list
    every instruction of the block exactly once; otherwise raises
    [Invalid_argument] and leaves the block as it was.  O(length). *)

val successors : t -> t list
