(** Block-local common subexpression elimination: pure instructions
    with the same opcode, type and operands (by {!Snslp_ir.Value.equal};
    a commutative binop's operands in either order), plus load
    unification across non-aliasing stores. *)

val run : Snslp_ir.Defs.func -> int
