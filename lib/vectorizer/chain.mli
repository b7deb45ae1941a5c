(** Trunk chain discovery — the per-lane half of Multi/Super-Node
    construction: the maximal uninterrupted expression tree of binops
    from one operator family, with APO-annotated leaves. *)

open Snslp_ir

type leaf = {
  lvalue : Defs.value;
  lapo : Apo.t;
  lpos : int; (** in-order position, 0 = leftmost/deepest *)
}

type t = {
  root : Defs.instr;
  fam : Family.t;
  trunk : Defs.instr list; (** root included *)
  leaves : leaf array; (** in-order; length = trunk length + 1 *)
  elem : Ty.scalar;
}

val size : t -> int
(** Trunk instruction count — the node-size statistic. *)

val max_trunk : int
(** The most trunk instructions {!discover} collects (16): a longer
    tree is cut there, and its remaining binops become leaves.  Bounds
    compile time. *)

val discover : Config.t -> Defs.func -> Defs.instr -> t option
(** Grows the chain from a root binop.  Interior nodes must be
    single-use, same-type, same-block binops of the family — only the
    direct operator in [Lslp] mode (the Multi-Node restriction), both
    in [Snslp]; [Vanilla] never chains.  [None] below the minimum
    size of 2 trunk instructions. *)

val is_canonical : t -> bool
(** Already a left-leaning chain (no regeneration needed when the
    chosen order is the identity). *)

type rewrite = {
  value : Defs.value;  (** what the root's uses now read *)
  emitted : Defs.instr list;  (** the chain's binops, in emission order *)
  erased : Defs.instr list;  (** the trunk instructions erased, root first *)
}

val rewrite : Defs.func -> t -> (Defs.value * Apo.t) list -> rewrite
(** [rewrite func chain terms] writes [terms] as the left-leaning chain
    [((t0 op1 t1) op2 t2) ...] just before [chain]'s root, each
    operator realising its term's APO in the chain's family and typed
    like the root; moves the root's uses to the result; and erases the
    trunk root first (every trunk instruction left without uses).  A
    single term emits nothing and becomes the result.  Raises
    [Invalid_argument] when the first term is not [Plus]: a chain has
    no unary inverse.  The one chain writer of Super-Node regeneration
    and reduction recombination. *)

val pp : t Fmt.t
