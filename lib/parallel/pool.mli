(** A small domain pool on the OCaml 5 standard library — no
    [domainslib], just [Domain], [Mutex] and [Condition].

    The pool owns [jobs - 1] long-lived worker domains; the submitting
    domain participates as worker 0, so [jobs = 1] never spawns a
    domain and runs entirely inline.  A {!map} call splits the index
    range into one contiguous deque per worker; owners take chunks
    from the front of their own deque and idle workers steal chunks
    from the back of the fullest one.  Results land in a slot indexed
    by the item's input position, so the output order — and therefore
    anything downstream that folds over it — is identical for every
    [jobs] value and every steal schedule. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [max 0 (jobs - 1)] worker domains.  [jobs]
    is clamped to at least 1. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — what the machine can
    actually run in parallel. *)

val min_cost_per_domain : int
(** Estimated work (cost units) each additional domain must have on
    the table to amortise its spawn/join overhead; see
    {!effective_jobs}. *)

val effective_jobs :
  ?cores:int -> requested:int -> items:int -> total_cost:int -> unit -> int
(** [effective_jobs ~requested ~items ~total_cost ()] adapts a
    requested fan-out to the machine and the work: the result never
    exceeds [requested], [cores] (default {!recommended_jobs} — the
    fix for jobs>1 losing on a 1-core container), [items], or
    [1 + total_cost / min_cost_per_domain].  At least 1; a result of
    1 means run inline without spawning.  Clamping never changes
    output, only wall-clock. *)

val map : ?chunk:int -> t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f arr] computes [f arr.(i)] for every index,
    distributing chunks over the pool's workers, and returns the
    results in input order.  [chunk] (default: items / (8 × workers),
    at least 1) is the steal granularity.

    The first exception raised by any item aborts the remaining work
    (already-started chunks finish) and is re-raised in the submitting
    domain.  Calls are serialized: a pool runs one map at a time. *)

val map_list : ?chunk:int -> t -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} over a list, preserving list order. *)

val shutdown : t -> unit
(** Join the worker domains.  Idempotent; the pool afterwards runs
    every map inline on the submitting domain. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run, and always [shutdown]. *)
