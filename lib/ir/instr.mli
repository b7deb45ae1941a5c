(** Operations over IR instructions. *)

type t = Defs.instr

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val id : t -> int
val opcode : t -> Defs.opcode
val ty : t -> Ty.t
val name : t -> string
val set_name : t -> string -> unit
val block : t -> Defs.block option

val operands : t -> Defs.value array
val operand : t -> int -> Defs.value
val num_operands : t -> int
val set_operand : t -> int -> Defs.value -> unit
(** The only supported way to overwrite an operand slot: keeps the
    def-use chains of both the old and the new operand consistent,
    and bumps the edit stamp of the instruction's block
    ({!Block.stamp}). *)

val value : t -> Defs.value
(** The instruction as a value (its result). *)

val is_binop : t -> bool
val binop_kind : t -> Defs.binop option
val is_load : t -> bool
val is_store : t -> bool
val is_phi : t -> bool
val is_memory : t -> bool

val writes_memory : t -> bool
(** Whether the instruction must keep its order relative to
    may-aliasing memory operations (stores). *)

val has_result : t -> bool
(** All instructions except stores produce a value. *)

val same_opcode : t -> t -> bool
(** Exact opcode equality, including binop kind, masks, predicates. *)

val fallback_pred_name : int -> string
(** Context-free rendering of a phi predecessor block id ("b3"), used
    when no block-name map is available. *)

val bprint_mnemonic : ?pred_name:(int -> string) -> Buffer.t -> t -> unit
(** Appends the mnemonic ("fadd", "shuffle.0.2", "phi.entry.latch").
    [pred_name] maps a phi predecessor block id to the block's name;
    defaults to {!fallback_pred_name}. *)

val bprint : ?pred_name:(int -> string) -> Buffer.t -> t -> unit
(** Appends the instruction's one-line syntax, ["%5 = fadd f64 %1, %2"]
    or ["store %3, %4"]: the only place it is written. *)

val opcode_mnemonic : ?pred_name:(int -> string) -> t -> string
(** {!bprint_mnemonic} as a string. *)

val to_string : ?pred_name:(int -> string) -> t -> string
(** {!bprint} as a string. *)

val pp : t Fmt.t
