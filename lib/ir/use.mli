(** Maintenance of the persistent def-use chains
    ([Defs.instr.iuses]).

    Invariant: every operand slot [user.ops.(n)] holding an [Instr d]
    has its record [user.islots.(n)] linked on [d]'s chain, and every
    record on [d]'s chain belongs to a slot holding [d].  The chain is
    doubly linked, so registering and unregistering a slot are O(1).
    Only the IR mutation chokepoints should call the mutators;
    everything else reads the chains through {!Func.uses_of} and
    friends, or through {!iter}/{!fold}/{!exists}. *)

val register : user:Defs.instr -> int -> unit
(** Link the record of [user]'s operand slot [n] (no-op when the slot
    does not hold an instruction result). *)

val register_all : Defs.instr -> unit
(** Register every operand slot: a slot holding an instruction gets
    its record (made the first time a slot holds one) linked.  For an
    instruction none of whose slots is registered (fresh, or with its
    whole operand array just assigned). *)

val unregister : user:Defs.instr -> int -> unit
(** Unlink the record of [user]'s operand slot [n] from the chain of
    the value currently in that slot, in O(1). *)

val unregister_all : Defs.instr -> unit

val unused : Defs.use
(** The end of every chain, and the record of every slot that has never
    held an instruction.  Never linked or written. *)

val iter : (Defs.instr -> int -> unit) -> Defs.instr -> unit
(** [iter f d] calls [f user slot] for every entry of [d]'s chain,
    newest first, detached users included.  [f] may unregister the
    slot it is given. *)

val fold : ('a -> Defs.instr -> int -> 'a) -> 'a -> Defs.instr -> 'a
val exists : (Defs.instr -> int -> bool) -> Defs.instr -> bool
