(** Shared machinery for forward rewriting passes: one sweep that
    offers each instruction to a step and redirects the users of every
    instruction it replaces on the spot — definitions precede uses, so
    cascades resolve in a single pass. *)

open Snslp_ir

val run : Defs.func -> (Defs.block -> Defs.instr -> Defs.value option) -> int
(** [run func step]: [step] may replace each instruction with a value;
    the instruction's attached users (phi back edges and blocks listed
    before it included) and the conditional branches that test it then
    read the value, and the instruction is dropped.  Returns the
    replacement count.  Costs the sweep plus the replaced
    instructions' uses. *)
