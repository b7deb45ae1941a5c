(** Operations over IR functions. *)

type t = Defs.func

val create : name:string -> args:(string * Ty.t) list -> t
val name : t -> string
val args : t -> Defs.arg array
val arg : t -> int -> Defs.arg
val find_arg : t -> string -> Defs.arg option

val blocks : t -> Defs.block list

val entry : t -> Defs.block
(** Raises [Invalid_argument] on a function with no blocks. *)

val add_block : t -> string -> Defs.block

val fresh_instr :
  t -> ?name:string -> Defs.opcode -> Ty.t -> Defs.value array -> Defs.instr
(** A detached instruction with a function-unique id; attach it with
    {!Block.append}/{!Block.insert_before}. *)

val iter_instrs : (Defs.instr -> unit) -> t -> unit
val fold_instrs : ('a -> Defs.instr -> 'a) -> 'a -> t -> 'a
val num_instrs : t -> int

val uses_of : t -> Defs.value -> (Defs.instr * int) list
(** All operand slots of block-attached instructions holding the
    value.  Instruction results are answered in O(uses) from the
    persistent use lists; other values fall back to
    {!scan_uses_of}.  Order is unspecified (the lists are bags). *)

val scan_uses_of : t -> Defs.value -> (Defs.instr * int) list
(** The reference implementation: a full scan over the function, in
    block order.  The ground truth the maintained use lists are
    checked against, and the only way to answer for constants and
    arguments. *)

val has_uses : t -> Defs.value -> bool

val replace_all_uses : t -> old_v:Defs.value -> new_v:Defs.value -> unit
(** Rewrites every operand slot and terminator condition; O(uses)
    for instruction results. *)

val erase_instr : t -> Defs.instr -> unit
(** Raises [Invalid_argument] if the instruction still has uses or is
    not attached to a block.  Unregisters the operand uses of the
    erased instruction. *)

val check_use_lists : t -> (unit, string) result
(** Verify the def-use invariant: every operand slot holding an
    instruction result is mirrored by exactly one use entry, and every
    use entry points back at a matching slot.  For tests. *)

val clone : t -> t
(** Deep copy preserving instruction and block ids, so analyses keyed
    by id replay on the clone. *)
