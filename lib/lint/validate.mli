(** The translation validator: symbolic execution of both sides of a
    transformation into {!Normal} forms with store-forwarding memory,
    ifconv-shaped conditional merging and counted-loop execution,
    followed by a store-by-store comparison of the final memories.

    Counted loops ({!Snslp_loops.Loops.recognize}) are executed
    trip-by-trip when init and bound are compile-time constants — so
    full and partial unrolls, unroll-and-jam and rotated forms
    validate [Valid] against their rolled sources — and folded into a
    parametric per-iteration summary when the trip count is symbolic
    but the loop is in the strict counted form: equal summaries on
    both sides prove the loops equivalent by induction over the
    identical iteration sequence.  Buffers written by a symbolic-trip
    loop are tainted; later accesses to them leave the fragment
    (sound — [Unknown], never a false [Valid]). *)

open Snslp_ir

type verdict =
  | Valid
  | Unknown of string
      (** one side fell outside the supported fragment (irregular
          loops, symbolic trips outside the inductive form, vector
          arguments, unresolvable addresses, distribution blow-up),
          or the two sides' loop summaries diverge — inductively
          inconclusive, not disproved *)
  | Mismatch of { where : string; detail : string }
      (** [where] is the pretty-printed store whose value differs *)

val verdict_to_string : verdict -> string

type snapshot
(** One captured side of a comparison: the symbolic memory the
    function leaves behind, or the reason it fell outside the
    supported fragment (reported as [Unknown] when compared). *)

type cache
(** Work the captures of one function share across passes: arguments,
    constants, scalar arithmetic and gep results keyed by the identity
    of their operands' normal forms, and initial-memory atoms.  Sharing
    it changes no snapshot; later captures of mostly unchanged IR
    become lookups. *)

val cache : unit -> cache

val capture : cache:cache -> Defs.func -> snapshot
(** Symbolically execute [f] once.  Capturing is the expensive half of
    validation; a snapshot can be compared any number of times, so a
    pass pipeline chains them — the snapshot taken after pass [n] is
    the pre-state of pass [n+1]. *)

val snapshot_digest : snapshot -> string option
(** A content digest of the snapshot's observable behaviour: the
    stored locations with their {!Normal} canonical forms plus one
    line per symbolic-loop summary (init, bound, cmp, step, and the
    full parametric store footprint), sorted and hashed.
    Semantically equivalent functions (equal under
    {!compare_snapshots} with zero tolerance) digest identically even
    when their instruction sequences differ, and genuinely different
    symbolic loops never share.  [None] when the capture fell outside
    the supported fragment — an unknown behaviour has no canonical
    form and must never share a digest. *)

val compare_snapshots : ?tolerance:float -> snapshot -> snapshot -> verdict
(** [compare_snapshots pre post] validates that [post] stores the same
    normal forms to the same symbolic locations as [pre].
    [tolerance] (default [1e-6]) is the relative coefficient slack
    absorbing float constant-folding grouping differences. *)

val compare_funcs : ?tolerance:float -> Defs.func -> Defs.func -> verdict
(** [compare_funcs pre post] is
    [compare_snapshots (capture pre) (capture post)]. *)
