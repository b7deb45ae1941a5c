(** The IR interpreter: a tree-walking engine and a staged, compiled
    closure engine with identical observable semantics.

    Vector operations compute lane-wise with the same scalar semantics
    as scalar operations (f32 rounding included), so a correct
    vectorization is observationally identical to the scalar original
    — the property the differential tests check.  The two engines are
    themselves differentially tested against each other (bit-exact
    final memory, same traps, same step budget); see docs/INTERP.md. *)

open Snslp_ir

exception Runtime_error of string

val run :
  ?on_exec:(Defs.instr -> unit) ->
  ?max_steps:int ->
  Defs.func ->
  args:Rvalue.t array ->
  memory:Memory.t ->
  unit
(** One call on the tree-walking engine.  [args] bind by position;
    array arguments must be [R_ptr]s into [memory].  [on_exec] fires
    per executed instruction (the performance simulator's hook);
    [max_steps] guards against runaway execution. *)

val run_counted :
  ?on_exec:(Defs.instr -> unit) ->
  ?max_steps:int ->
  Defs.func ->
  args:Rvalue.t array ->
  memory:Memory.t ->
  int
(** [run] returning the number of executed instructions. *)

(** {1 Compiled execution engine} *)

type plan
(** A function staged into per-type register banks and
    instruction-specialized closures, replayable with no per-step
    opcode dispatch or hash lookups.  A plan is reusable across calls
    but owns one mutable register state: it is not reentrant and must
    not be shared across domains without synchronisation. *)

val compile : Defs.func -> plan
(** Stage [func] once.  The plan captures the function's current
    instructions; recompile after mutating passes. *)

val execute :
  ?on_exec:(Defs.instr -> unit) ->
  ?max_steps:int ->
  plan ->
  args:Rvalue.t array ->
  memory:Memory.t ->
  int
(** Replay one call; returns the executed-instruction count.
    Observationally identical to {!run} — same values, f32 rounding,
    trap messages and ordering, step-budget semantics and [on_exec]
    stream (instrumentation lives in the driver loop, so the
    uninstrumented replay pays nothing for it). *)

(** {1 Engine selection} *)

type engine = Tree | Compiled

val exec :
  ?engine:engine ->
  ?on_exec:(Defs.instr -> unit) ->
  ?max_steps:int ->
  Defs.func ->
  args:Rvalue.t array ->
  memory:Memory.t ->
  int
(** One call on the chosen engine (default [Compiled]); returns the
    executed-instruction count.  Single-shot convenience — repeated
    executions should {!compile} once and {!execute} the plan. *)
