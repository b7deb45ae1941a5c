(** Operations over IR values (constants, arguments, undef,
    instruction results). *)

type t = Defs.value

val ty : t -> Ty.t

val equal : t -> t -> bool
(** Value identity within one function: instructions by id, arguments
    by position, undefs by type, constants by type and bits (so [0.0]
    and [-0.0] differ).  The one rule every value-keyed table
    follows. *)

val hash : t -> int
(** A hash consistent with {!equal}, for [Hashtbl.Make]. *)

val is_instr : t -> bool
val is_const : t -> bool
val as_instr : t -> Defs.instr option

val const_int : ?ty:Ty.t -> int -> t
(** [const_int n] is an [i64] constant (or [~ty] when given).  Raises
    [Invalid_argument] on non-integer types. *)

val const_float : ?ty:Ty.t -> float -> t
(** [const_float f] is an [f64] constant (or [~ty] when given). *)

val const_of_lit : Ty.t -> Lit.t -> t
(** Raises [Invalid_argument] when the literal does not match the
    type. *)

val as_const_int : t -> int option
(** The value of an integer constant, if that is what [t] is. *)

val key : t -> string
(** {!equal}'s rule as text, for string-keyed tables: within one
    function, two values have the same key iff they are equal (NaN
    constants aside, which all print alike). *)

val name : t -> string
(** Printable name: ["%3"], ["%A"], ["42"], ["0.5"], ["undef"].
    Constants print exactly ({!Lit.to_human}). *)

val bprint_name : Buffer.t -> t -> unit
(** Appends {!name} to the buffer. *)

val pp : t Fmt.t
