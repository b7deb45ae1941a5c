(** Available expressions: forward must-analysis (intersection at
    joins) over structural keys of pure instructions; loads are killed
    by any store. *)

open Snslp_ir
module SS : Set.S with type elt = string

type solution

val expr_key : Defs.instr -> string option
(** Structural key of a value-producing instruction; [None] for
    stores. *)

val compute : Defs.func -> solution

val redundant : solution -> Defs.func -> Defs.instr list
(** Instructions whose expression is already available at their
    program point — CSE opportunities. *)
