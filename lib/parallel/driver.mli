(** The parallel vectorization driver: fan a list of functions across
    domains, one {!Snslp_passes.Pipeline.run} per work item.

    Functions are independent vectorization units — the per-function
    IR is disjoint (instruction ids are function-local) and every
    piece of the vectorizer's mutable state ([Deps], the look-ahead
    memo) belongs to one run — so the fan-out needs no
    synchronization beyond {!map}'s shared index counter, and the
    result list, ordered by work-item index, is bit-identical to the
    sequential path for every [jobs] value. *)

open Snslp_ir
open Snslp_vectorizer
open Snslp_passes

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f items] is [List.map f items] computed on
    [min jobs (List.length items)] domains, the caller's included, so
    [jobs <= 1] spawns no domain.  Each domain claims the next
    unclaimed item until none is left.  Once an item raises, no
    further item is claimed, and [map] re-raises the exception of the
    lowest failed index — the one [List.map] raises. *)

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
    it is {!map}'s domain count.  [verify_each] and [validate] (the
    translation validator) pass through to {!Pipeline.run}. *)

val min_cost_per_domain : int
(** Estimated work (cost units) each additional domain must have on
    the table to amortise its spawn/join overhead; see
    {!effective_jobs}. *)

val effective_jobs :
  ?cores:int -> requested:int -> items:int -> total_cost:int -> unit -> int
(** [effective_jobs ~requested ~items ~total_cost ()] adapts a
    requested fan-out to the machine and the work: the result never
    exceeds [requested], [cores] (default
    [Domain.recommended_domain_count ()] — the fix for jobs>1 losing
    on a 1-core container), [items], or
    [1 + total_cost / min_cost_per_domain].  At least 1; a result of
    1 means run inline without spawning.  Clamping never changes
    output, only wall-clock. *)

val adaptive_jobs : requested:int -> Defs.func list -> int
(** The fan-out worth using for [funcs]: [requested] clamped by
    {!effective_jobs} (available cores, item count, and summed
    instruction count as the per-request cost estimate), so a single
    function, a 1-core host or a batch of tiny functions runs inline.
    Clamping changes only wall-clock. *)

val merged_stats : Pipeline.result list -> Stats.t
(** A fresh record with every item's vectorizer stats added into it
    by {!Stats.add}, in work-item index order — deterministic for
    every [jobs] value and schedule.  Items without a vectorization
    report (-O3) contribute nothing. *)
