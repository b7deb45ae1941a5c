(** Simulated performance measurement — the stand-in for the paper's
    Intel i5-6440HQ (DESIGN.md §2).  The interpreter runs the compiled
    IR while per-instruction costs from the cost model accumulate,
    divided by the target's issue width. *)

open Snslp_ir
open Snslp_costmodel
open Snslp_interp

val instr_cost : Model.t -> Target.t -> Defs.instr -> float
(** Abstract cycles of one dynamic execution. *)

type result = { cycles : float; instrs_executed : int }

val measure :
  ?model:Model.t ->
  ?target:Target.t ->
  Defs.func ->
  memory:Memory.t ->
  make_args:(int -> Rvalue.t array) ->
  iters:int ->
  result
(** Executes the function [iters] times (arguments rebuilt per
    iteration so a loop counter can be threaded through) on the
    compiled engine, staged once for the loop; per-instruction costs
    are memoized by instruction id. *)

val speedup : baseline:result -> candidate:result -> float
