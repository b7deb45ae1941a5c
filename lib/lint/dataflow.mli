(** A generic worklist dataflow engine: a functor over a
    join-semilattice, running forward to a fixpoint over the
    function's CFG. *)

open Snslp_ir

module type LATTICE = sig
  type t

  val equal : t -> t -> bool
  val join : t -> t -> t
end

module Make (L : LATTICE) : sig
  type transfer = Defs.instr -> L.t -> L.t

  type solution

  val solve : boundary:L.t -> bottom:L.t -> transfer:transfer -> Defs.func -> solution
  (** [solve ~boundary ~bottom ~transfer f] iterates to a fixpoint.
      [boundary] is the state at the function entry; [bottom] is the
      optimistic initial state of interior blocks. *)

  val instr_states : solution -> Defs.block -> (Defs.instr * L.t * L.t) list
  (** Per instruction in block order, the state entering and the state
      leaving its transfer. *)
end
