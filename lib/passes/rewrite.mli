(** Shared machinery for forward rewriting passes: one sweep that
    rewrites operands through an accumulated replacement map before
    each instruction is examined — definitions precede uses, so
    cascades resolve in a single pass.  The map is an array indexed by
    instruction id. *)

open Snslp_ir

val run : Defs.func -> (Defs.block -> Defs.instr -> Defs.value option) -> int
(** [run func step]: operands are rewritten, then [step] may replace
    the instruction with a value; replaced instructions are dropped.
    Returns the replacement count.  The map is sized from
    [func.next_iid] when the sweep starts; an instruction whose id is
    past that size is a broken function and raises
    [Invalid_argument]. *)
