(** IR well-formedness checks: per-opcode typing, unique ids,
    consistent block back-pointers, links and order keys, terminated
    blocks with in-function targets, and definitions dominating uses
    (order keys within a block, dominators across blocks). *)

type error = { where : string; what : string }

val pp_error : error Fmt.t

val verify : Defs.func -> error list
(** All problems found, empty when well-formed. *)

val check : Defs.func -> (unit, string) result
(** {!verify} as a result: [Error report] joins all problems into one
    readable line. *)

exception Invalid_ir of string

val verify_exn : Defs.func -> unit
(** Raises {!Invalid_ir} with a readable report when malformed. *)

type scope
(** A function as a local check reads it beyond the instructions it
    checks: its blocks by id, and its dominator tree, computed the
    first time a check needs it.  A scope stays valid while no block is
    added, removed or retargeted, so a pass that checks its rewrites
    one by one builds one and passes it to each. *)

val scope : Defs.func -> scope
(** O(blocks of the function). *)

val verify_local_exn : scope -> touched:Defs.instr list -> erased:Defs.instr list -> unit
(** The checks of {!verify} that a local rewrite of the scope's
    function can break, limited to the instructions it emitted or moved
    ([touched]) and those it erased, in O(their operands and uses);
    raises {!Invalid_ir} like {!verify_exn}.  A touched instruction
    must be attached, well formed, between increasing keys, keep phis
    at the block head, and dominate its users as its operands dominate
    it; an erased one must be detached and used by nothing attached. *)
