(** Loop unrolling over counted loops: full unroll (loop deleted, iv
    constant-folded per iteration) under a size budget, partial unroll
    by a factor with an epilogue loop otherwise.  Only loops
    {!Snslp_loops.Loops.as_counted} accepts are touched; every
    rewrite preserves the exact scalar semantics (iteration order,
    float rounding, trap behaviour). *)

open Snslp_ir

type report = {
  loops : int;  (** natural loops in the function *)
  counted : int;  (** of which recognized as counted *)
  full : int;  (** fully unrolled (loop deleted, no phi survives) *)
  partial : int;  (** partially unrolled (epilogue loop remains) *)
}

val run : policy:Snslp_vectorizer.Config.unroll -> Defs.func -> report
(** Analyze and unroll every counted loop of [f] in place per
    [policy].  [Unroll_auto] unrolls fully when the trip count is
    known and the copies fit a 256-instruction budget, else partially
    by 4 when four copies fit it; [Unroll_by k] unrolls fully when the
    trip count is known and at most [k] (still budget-capped), else
    partially by [k]; [No_unroll] leaves [f] alone. *)
