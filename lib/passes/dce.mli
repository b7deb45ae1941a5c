(** Dead code elimination by worklist over the IR's use lists; stores
    and branch conditions are roots.  Returns the number of
    instructions erased. *)

val run : Snslp_ir.Defs.func -> int
