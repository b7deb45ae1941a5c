(** Front door of the static analyzer. *)

open Snslp_ir

val run : ?bound:int -> Defs.func -> Finding.t list
(** The full checker suite ({!Checks.all}). *)

val vector_invariants : Snslp_vectorizer.Config.t -> Defs.func -> Finding.t list
(** Vectorizes a clone of the function under [config] and re-derives
    the structural invariants ({!Invariants.check}) of every SLP graph
    the builder produces — including cost-rejected ones.  The caller's
    IR is not modified. *)
