(** The differential oracle: runs a function through every pipeline
    configuration and compares the interpreter's final memory against
    the unoptimized reference. *)

open Snslp_ir
open Snslp_interp
module Pipeline = Snslp_passes.Pipeline

type kind =
  | Crash of string  (** the pipeline or the interpreter raised *)
  | Invalid of string  (** the optimized function fails the verifier *)
  | Mismatch of string  (** final memories diverge beyond tolerance *)
  | Static_mismatch of string
      (** the translation validator proved a stored value differs *)

type finding = { config : string; kind : kind }

val kind_to_string : kind -> string
val finding_to_string : finding -> string

type engine = Tree | Compiled | Cross
(** Which interpreter engine backs the oracle: the tree-walker, the
    compiled closure engine (default), or [Cross] — reference on the
    tree-walker, optimized runs on the compiled engine, so the two
    engines differentially check each other. *)

val engine_name : engine -> string
val engine_of_string : string -> engine option

type exec_stats = {
  mutable exec_runs : int;
  mutable exec_instrs : int;
  mutable exec_seconds : float;
}
(** Interpreter throughput accumulated across oracle executions
    (seconds include compile staging for the compiled engine). *)

val create_exec_stats : unit -> exec_stats

val default_configs : (string * Pipeline.setting) list
(** O3, slp, lslp and snslp, plus snslp under global packing and on
    every other target. *)

val buffer_size : int
val index_value : int64

val fresh_memory : Defs.func -> Memory.t
val make_args : Defs.func -> Rvalue.t array

val run_memory : ?engine:Snslp_interp.Interp.engine -> Defs.func -> Memory.t
(** One interpreted call on fresh deterministic memory (compiled
    engine by default). *)

val inject_bug : (Defs.func -> unit) option ref
(** Test-only: mutates each optimized function before comparison, so
    the reduction path can be exercised end to end.  [None] in
    production. *)

val run_case :
  ?engine:engine ->
  ?stats:exec_stats ->
  ?configs:(string * Pipeline.setting) list ->
  ?tolerance:float ->
  ?validate:bool ->
  Defs.func ->
  finding list
(** All findings for one function; the empty list means every
    configuration agreed with the reference.  Every configuration,
    o3 included, runs with the verifier after each pass, so a pass
    that breaks the IR is named in its [Crash].  [tolerance] defaults to
    {!Gen.tolerance_for}.  The input memory template is built once and
    snapshot-restored per configuration; [stats] accumulates engine
    throughput when given.  [validate] (default true) additionally
    runs the translation validator on each optimized function — a
    static side-channel next to the interpreter diff; a proved
    divergence is reported as {!Static_mismatch} (validator [Unknown]
    is not a finding). *)

val check_jobs_determinism :
  ?setting:Pipeline.setting -> jobs:int -> Defs.func list -> finding list
(** Sequential vs [jobs]-worker driver runs must print identical IR
    per function. *)
