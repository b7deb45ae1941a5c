(** Operations over basic blocks. *)

type t = Defs.block

val equal : t -> t -> bool
val name : t -> string

val instrs : t -> Defs.instr list
(** The instructions in execution order. *)

val terminator : t -> Defs.terminator
val set_terminator : t -> Defs.terminator -> unit

val length : t -> int
val iter : (Defs.instr -> unit) -> t -> unit
val fold : ('a -> Defs.instr -> 'a) -> 'a -> t -> 'a
val mem : t -> Defs.instr -> bool

val append : t -> Defs.instr -> unit
(** Appends a detached instruction (asserts it is in no block). *)

val insert_before : t -> anchor:Defs.instr -> Defs.instr -> unit

val remove : t -> Defs.instr -> unit
(** Detaches the instruction; raises [Invalid_argument] if it is not a
    member.  Its operand uses stay registered, so it can be
    re-inserted elsewhere (code motion). *)

val discard_if : t -> (Defs.instr -> bool) -> unit
(** Detach every instruction satisfying the predicate and unregister
    its operand uses, in one traversal.  For instructions that are
    gone for good (DCE, rewriting passes) — not for code motion. *)

val reorder : t -> Defs.instr list -> unit
(** Replaces the instruction order.  The new order must be a
    permutation of the current instructions. *)

val index_of : t -> Defs.instr -> int option
(** Position in the block, O(length). *)

val successors : t -> t list
