(** The snslpd compile service: one compile cache plus the
    {!Protocol} conversation loop around it.

    Misses compile in the calling domain.  A kernel is lowered only
    when the structural index, keyed on its parsed form
    ({!Snslp_frontend.Ast.digest}), does not know its cache key.
    Hits are answered from the cached text: the printing itself under
    the origin's name, or the printing with the requester's name
    spliced into its [func @] line, which keeps cache answers
    byte-identical to fresh compiles of the same source. *)

type t

type cached
(** A cache entry: the origin's kernel name and its optimised function
    printed.  No IR is kept. *)

val create :
  ?capacity:int ->
  ?compile:(Snslp_passes.Pipeline.setting -> Snslp_ir.Defs.func -> Snslp_passes.Pipeline.result) ->
  unit ->
  t
(** A fresh server with an empty cache of [capacity] entries
    (default {!Cache.default_capacity}).  [compile] compiles each miss
    (default {!Snslp_passes.Pipeline.run}); the daemon never passes
    one, so only an in-process caller, such as a test that needs a
    compile to raise, can replace it. *)

val cache : t -> cached Cache.t
(** The underlying cache — exposed for tests and the benchmark's
    counter assertions. *)

val handle_batch :
  t -> (string * string, string) result list -> Protocol.response list
(** [handle_batch t requests] compiles one batch: each [Ok (mode,
    source)] yields a [Compiled] response in order, each [Error msg]
    an [Err].  A mode is "o3", "slp", "lslp" or "sn-slp", optionally
    suffixed "+greedy" or "+global[:BEAM[:BUDGET]]" to pick the
    statement-packing strategy, and/or "/urPOLICY" (POLICY = "none",
    "auto", or a factor >= 2) to pick the loop-unroll policy; both
    choices are part of the config fingerprint, so cache entries
    never cross packing modes or unroll policies.  Cache
    lookups happen per function; the misses of the whole batch then
    compile in first-seen order, whatever their modes, identical
    misses deduplicated by cache key.  Every kernel of a request is
    lowered (when it must be) before the request's first cache lookup,
    so a request that fails to parse, type-check or lower is an [Err]
    that leaves every counter unchanged.  A compile that raises makes
    each request that waits on it an [Err] naming the exception; it is
    not cached, and the batch's other requests are answered as usual.
    A hit is [Hit_textual] when the entry was stored under the same
    kernel digest, so a variant that differs only in tokens that do
    not reach the IR (a [let] temporary) hits semantically.  Exposed
    for in-process use; {!serve} frames the same calls. *)

val stats_reply : t -> Protocol.response
(** The counters snapshot [serve] answers [stats] with: cache
    counters, hit rate, latency mean (over every request served) and
    p50/p99 (over the latest 4096, see {!latencies_s}), then the
    global pack-selection search counters (pack_candidates /
    pack_expansions / pack_pruned / pack_plans), the revec counters
    (revec_pairs / revec_widened) and the loop-subsystem counters
    (loops_found / loops_counted / loops_unrolled_full /
    loops_unrolled_partial / loop_blocks_jammed).  Those last eleven
    are fields of one {!Snslp_vectorizer.Stats.t} that every compiled
    miss's record is added into with
    {!Snslp_vectorizer.Stats.add}: a fixed-size record, however long
    the server runs. *)

val latencies_s : t -> float list
(** The latest 4096 per-request latencies, newest first, read on the
    monotonic clock ({!Snslp_vectorizer.Stats.now_s}): a fixed
    window, so a long-running daemon's memory and [stats] cost stay
    bounded.  Requests in a batch all record the batch's elapsed time
    — what a synchronous client observes. *)

val serve : t -> reader:(unit -> string option) -> writer:(string -> unit) -> unit
(** Run the conversation until [quit] or end of stream.  [reader]
    returns one line per call without its newline; [writer] takes one
    line per call.  The same server (and cache) may serve any number
    of consecutive conversations. *)
