(** The checker suite built on the dataflow engine and [lib/analysis].

    Severity policy: [Error] marks code that traps or reads garbage at
    runtime (undef operands, provably out-of-bounds accesses,
    cross-kind memory access — the static mirror of [Memory.read]'s
    rejection); [Warning] marks correct-but-suspicious code (dead
    stores); [Info] marks optimisation opportunities (available
    expressions CSE would remove). *)

open Snslp_ir

val undef_uses : Defs.func -> Finding.t list
(** Operands (and branch conditions) that are [undef] anywhere other
    than the sanctioned positions — [insert] operand 0 and [shuffle]
    operand 1, which the vectorizer's own codegen emits. *)

val dead_stores : Defs.func -> Finding.t list
(** Stores fully overwritten by a later same-block store before any
    possibly-overlapping load. *)

val bounds : ?bound:int -> Defs.func -> Finding.t list
(** Accesses with a provably negative constant element index; with
    [bound], also accesses provably past the end of an [n]-element
    buffer. *)

val memory_kinds : Defs.func -> Finding.t list
(** Loads/stores whose element kind crosses int/float against the
    pointed-to buffer's kind ([Error]), or differs only in width
    ([Warning]). *)

val redundant : Defs.func -> Finding.t list
(** Instructions whose expression is available on entry (CSE
    opportunities), from the available-expressions analysis. *)

val loop_bounds : ?bound:int -> Defs.func -> Loopdep.t -> Finding.t list
(** Symbolic out-of-bounds: for accesses affine in a counted loop's
    induction variable with a known trip count, the element range
    over all iterations — catches the off-by-one the constant-only
    {!bounds} checker cannot see.  Findings name the owning loop
    header. *)

val loop_dead_stores : Defs.func -> Loopdep.t -> Finding.t list
(** Loop-carried dead stores: a store to a loop-invariant location
    executing every iteration that no loop load may observe — every
    trip but the last is wasted. *)

val loop_termination : Defs.func -> Loopdep.t -> Finding.t list
(** Counted loops that provably never terminate (constant operands,
    recurrence blows through the trip cap) are [Error]; non-monotone
    symbolic-bound loops (termination depends on the runtime value)
    are [Warning]. *)

val loop_dependences : Defs.func -> Loopdep.t -> Finding.t list
(** Cross-iteration dependences from {!Loopdep}: one [Info] finding
    per loop-carried flow/anti/output dependence with its iteration
    distance. *)

val all : ?bound:int -> Defs.func -> Finding.t list
(** Every checker, in the order above; the loop checkers share one
    {!Loopdep.analyze} of the function. *)
