(** A bounded LRU cache for compile results, content-addressed by
    {!Snslp_lint.Semhash.cache_key} strings.

    The cache itself is key-agnostic; the semantic/textual split in
    its accounting comes from the structural digest callers thread
    through (the server passes each parsed kernel's
    {!Snslp_frontend.Ast.digest}): a hit whose stored entry was
    inserted under a different structural digest means the key
    equated two structurally distinct programs — the hit only a
    semantic cache could produce. *)

type outcome = Hit_semantic | Hit_textual | Miss

val outcome_to_string : outcome -> string
(** [hit-semantic], [hit-textual], [miss] — the wire spelling used by
    the service protocol. *)

type counters = {
  hits_semantic : int;
  hits_textual : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

type 'a t

val default_capacity : int

val create : ?capacity:int -> unit -> 'a t
(** An empty cache holding at most [capacity] (default
    {!default_capacity}, clamped to at least 1) entries. *)

val find : 'a t -> key:string -> structural:string -> ('a * outcome) option
(** Look up [key], record the outcome in the counters, and refresh the
    entry's recency.  [structural] is the request's structural digest;
    the outcome is [Hit_textual] when it matches the stored entry's
    and [Hit_semantic] otherwise.  [None] counts as a miss. *)

val add : 'a t -> key:string -> structural:string -> 'a -> unit
(** Insert, evicting the least-recently-used entry when the cache is
    full.  A key already present keeps its first value — the compile
    is deterministic, so re-insertion has nothing new to say. *)

val find_exact : 'a t -> key:string -> 'a option
(** Like {!find} for a request the caller already proved
    byte-identical to a previous one (the server's request-index fast
    path): a hit counts as textual without needing a structural
    digest. *)

val mem : 'a t -> string -> bool
(** Key presence without touching counters or recency — the probe the
    server's exact-match fast path uses to detect stale index
    entries. *)

val counters : 'a t -> counters

val hit_rate : counters -> float
(** Hits over lookups; 0 before the first lookup. *)
