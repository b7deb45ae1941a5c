(** The pass pipeline — a miniature -O3: canonicalising scalar passes
    (fold, simplify, CSE), the configured SLP variant, then DCE; every
    pass timed, the output verified. *)

open Snslp_ir
open Snslp_vectorizer

type timing = { pass : string; seconds : float }

type validation = {
  pass_verdicts : (string * Snslp_lint.Validate.verdict) list;
      (** one verdict per recorded rewriting pass, in pass order *)
  graph_findings : string list;
      (** structural-invariant violations of built SLP graphs *)
  end_verdict : Snslp_lint.Validate.verdict;
      (** original input vs final output *)
  validate_seconds : float;
      (** time the validator itself consumed (excluded from pass
          timings) *)
}

type result = {
  func : Defs.func;
  vect_report : Vectorize.report option;
      (** [None] under plain -O3.  Its stats are the compile's one
          counters record: the vectorizer's, plus the revec and loop
          counters the pipeline adds (all zero when those passes are
          off). *)
  timings : timing list;
  total_seconds : float;
  validation : validation option; (** [Some] iff run with [~validate:true] *)
}

type setting = Config.t option
(** [None] models the paper's "O3" configuration (all vectorizers
    disabled). *)

val setting_name : setting -> string

val run :
  ?setting:setting ->
  ?verify_each:bool ->
  ?validate:bool ->
  ?tolerance:float ->
  ?on_graph:(Graph.t -> unit) ->
  Defs.func ->
  result
(** Optimises a clone; the input function is not modified.  Defaults
    to SN-SLP.  [verify_each] (default false) re-verifies the IR after
    every pass and raises {!Snslp_ir.Verifier.Invalid_ir} naming the
    pass that broke it.  [validate] (default false) runs the
    translation validator after every rewriting pass, checks the
    invariants of every built SLP graph, and records a whole-pipeline
    verdict in [result.validation]; [tolerance] is the validator's
    relative float tolerance (default 1e-6).  [on_graph] observes every
    SLP graph the vectorizer builds, as {!Vectorize.run}'s hook
    does. *)
