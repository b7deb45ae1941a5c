(** Workload construction and measurement for registry kernels: the
    IR function is the loop body, parameterised by the index argument
    [i]; the harness drives the loop over deterministically-filled
    buffers of dyadic rationals (so float computations are exact for
    shallow expressions and comparisons can be bitwise). *)

open Snslp_ir
open Snslp_interp

val float_value : seed:int -> int -> float
(** Deterministic dyadic values in [0.25, 8). *)

val int_value : seed:int -> int -> int64

type t = {
  kernel : Registry.t;
  func : Defs.func; (** the unoptimised frontend output *)
  iters : int;
  buffer_size : int;
}

val prepare : ?iters:int -> Registry.t -> t
val fresh_memory : t -> Defs.func -> Memory.t
val make_args : t -> Defs.func -> int -> Rvalue.t array

val run_interp : t -> Defs.func -> Memory.t
(** Execute the whole loop on the compiled engine (the plan is staged
    once and replayed per iteration); the final memory, for semantic
    comparisons. *)

val measure :
  ?model:Snslp_costmodel.Model.t ->
  ?target:Snslp_costmodel.Target.t ->
  t ->
  Defs.func ->
  Snslp_simperf.Simperf.result
(** Simulate the whole loop. *)
