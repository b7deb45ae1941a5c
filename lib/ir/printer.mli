(** Textual rendering of IR, in an LLVM-flavoured syntax. *)

val pp_terminator : Defs.terminator Fmt.t
val pp_func : Defs.func Fmt.t
val func_to_string : Defs.func -> string
