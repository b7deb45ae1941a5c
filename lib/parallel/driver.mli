(** The parallel vectorization driver: fan a list of functions across
    a domain pool, one {!Snslp_passes.Pipeline.run} per work item.

    Functions are independent vectorization units — the per-function
    IR is disjoint (instruction ids are function-local) and every
    piece of the vectorizer's mutable state ([Deps], the look-ahead
    memo) belongs to one run — so the fan-out needs no
    synchronization beyond the pool's queue, and the result list,
    ordered by work-item index, is bit-identical to the sequential
    path for every [jobs] value. *)

open Snslp_ir
open Snslp_vectorizer
open Snslp_passes

val run_all :
  ?jobs:int ->
  ?verify_each:bool ->
  ?validate:bool ->
  setting:Pipeline.setting ->
  Defs.func list ->
  Pipeline.result list
(** [run_all ~setting funcs] optimises every function (each via
    {!Pipeline.run}, which clones — inputs are not modified) and
    returns the results in input order.  [jobs] (default 1) is exact:
    a fresh pool of that many workers is created and shut down around
    the call (1 spawns no domain and runs inline).  [verify_each] and
    [validate] (the translation validator) pass through to
    {!Pipeline.run}. *)

val adaptive_jobs : requested:int -> Defs.func list -> int
(** The fan-out worth using for [funcs]: [requested] clamped by
    {!Snslp_parallel.Pool.effective_jobs} (available cores, item
    count, and summed instruction count as the per-request cost
    estimate), so a single function, a 1-core host or a batch of tiny
    functions runs inline.  Clamping changes only wall-clock. *)

val merged_stats : Pipeline.result list -> Stats.t
(** Fold of the per-item vectorizer stats with {!Stats.merge}, in
    work-item index order — deterministic for every [jobs] value and
    steal schedule.  Items without a vectorization report (-O3)
    contribute nothing. *)
