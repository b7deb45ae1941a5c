(** Instruction builder: constructs typed instructions at the end of a
    block.  Typing rules are enforced eagerly ([Invalid_argument]), so
    malformed IR fails at construction rather than at verification. *)

type t

val create : Defs.func -> at:Defs.block -> t
(** Appends every instruction to its block as it is built, in O(1),
    so the block can be edited right away (moved, removed, inserted
    around). *)

val position : t -> Defs.block -> unit

val block : t -> Defs.block
val func : t -> Defs.func

val binop : t -> ?name:string -> Defs.binop -> Defs.value -> Defs.value -> Defs.instr
val add : t -> ?name:string -> Defs.value -> Defs.value -> Defs.instr
val sub : t -> ?name:string -> Defs.value -> Defs.value -> Defs.instr
val mul : t -> ?name:string -> Defs.value -> Defs.value -> Defs.instr

val div : t -> ?name:string -> Defs.value -> Defs.value -> Defs.instr
(** Floating-point only; the IR has no integer division. *)

val alt_binop :
  t -> ?name:string -> Defs.binop array -> Defs.value -> Defs.value -> Defs.instr
(** Vector-only per-lane opcode (the addsub family); one opcode per
    lane. *)

val gep : t -> ?name:string -> Defs.value -> Defs.value -> Defs.instr
(** [gep base index]: address of element [index] (in elements). *)

val load : t -> ?name:string -> Defs.value -> Defs.instr
val vload : t -> ?name:string -> lanes:int -> Defs.value -> Defs.instr

val store : t -> Defs.value -> Defs.value -> Defs.instr
(** [store v addr]; a vector [v] stores [lanes] consecutive
    elements. *)

val insertelement : t -> ?name:string -> Defs.value -> Defs.value -> int -> Defs.instr
val extractelement : t -> ?name:string -> Defs.value -> int -> Defs.instr

val shuffle : t -> ?name:string -> Defs.value -> Defs.value -> int array -> Defs.instr
(** LLVM-style: mask indices address the concatenated lanes of both
    operands. *)

val icmp : t -> ?name:string -> Defs.cmp -> Defs.value -> Defs.value -> Defs.instr
val fcmp : t -> ?name:string -> Defs.cmp -> Defs.value -> Defs.value -> Defs.instr
val select : t -> ?name:string -> Defs.value -> Defs.value -> Defs.value -> Defs.instr

val phi :
  t -> ?name:string -> preds:Defs.block array -> Defs.value array -> Defs.instr
(** [phi b ~preds ops]: [ops.(k)] is the incoming value from
    [preds.(k)].  Must be appended before any non-phi of the block;
    operands may be placeholders patched later with
    {!Instr.set_operand} (back-edge values are built after the
    header). *)

val ret : t -> unit
val br : t -> Defs.block -> unit
val cond_br : t -> Defs.value -> Defs.block -> Defs.block -> unit
