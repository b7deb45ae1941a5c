(** Vector code generation (paper Figure 1 step 6b): one vector
    instruction per vectorizable node, insert chains for gathers, a
    broadcast for splats, extracts for external scalar uses; the
    replaced scalars are erased and the affected window of the block
    is rescheduled by a dependence-respecting topological sort. *)

open Snslp_ir

exception Scheduling_failure of string

exception Codegen_error of { opcode : string; instr : string }
(** An unexpected node reached vector emission: the graph builder let
    through an opcode codegen cannot widen.  Carries the opcode
    mnemonic and the printed instruction (or value). *)

val place :
  Snslp_analysis.Deps.t ->
  Defs.block ->
  erased:Defs.instr list ->
  (Defs.instr * Defs.instr * Defs.instr list) list ->
  Defs.instr list
(** [place deps block ~erased placed] positions instructions a rewrite
    appended to [block] with the scheduler {!run} uses, and returns
    every instruction it moved.  Each [(i, at, stands_for)] ranks just
    before [at], an instruction the block held before the rewrite;
    ties keep the list's order.  A memory access stands for the
    accesses [stands_for] in the memory order
    ({!Snslp_analysis.Deps.memory_order}; [[]]: for itself), which
    must still be linked.  [erased] are the instructions of [block]
    the rewrite replaces, still linked and used by nothing; their
    operand uses are retired and they are unlinked.  Register
    dependences and memory order win over ranks, and the window
    reaches down to every operand of a placed instruction.  [deps]
    is [block]'s analysis; this never re-reads it.  Raises
    {!Scheduling_failure} when no order exists. *)

type report = { vector_instrs : int; scalars_erased : int }

val run : scope:Verifier.scope -> Graph.t -> report
(** Rewrites the IR according to the accepted graph, then verifies
    what the rewrite touched ([scope] is the function's). *)
