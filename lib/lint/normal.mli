(** Canonical signed-multiset normal form: sums of coefficiented
    products over opaque atoms, flattening add/sub chains into signed
    terms (the additive APO) and mul/div chains into
    numerator/denominator factors (the multiplicative APO).  Constant
    folding mirrors the interpreter (int64 wrap, f32 per-op
    rounding). *)

open Snslp_ir

exception Too_big
(** Distribution of a product of sums exceeded the term cap; the
    expression is out of the normal form's scope. *)

type coeff = C_int of int64 | C_float of float

type t = private {
  knd : Ty.scalar;
  const : coeff;
  terms : term list;
  mutable skey_memo : string option;
      (** canonical-key memo; read it through {!skey} *)
  uid : int;
      (** distinct for every sum built, so a memo can key a pure
          operation by the identity of its operands *)
}

and term = { tc : coeff; tp : prod }
and prod = { pkey : string; pos : atom list; neg : atom list }
and atom = { akey : string; view : view }

and view =
  | Arg of int  (** scalar argument, by position *)
  | Cell of { base : int; index : t }
      (** initial memory content: argument position + element index *)
  | Opaque of { tag : string; args : t list }  (** cmp/select, structural *)
  | Wrap of t  (** a multi-term sum used as a denominator *)
  | Undef_atom

val zero : Ty.scalar -> t
val of_lit : Ty.scalar -> Lit.t -> t
val of_atom : Ty.scalar -> view -> t
val undef : Ty.scalar -> t

val as_const : t -> coeff option
(** The coefficient when the sum has no symbolic terms. *)

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
val div : t -> t -> t
val binop : Defs.binop -> t -> t -> t

val opaque : Ty.scalar -> string -> t list -> t

val icmp : Ty.scalar -> Defs.cmp -> t -> t -> t
(** Comparison under the result kind; constant operands fold with the
    fold pass's semantics. *)

val fcmp : Ty.scalar -> Defs.cmp -> t -> t -> t

val select : cond:t -> t -> t -> t
(** Folds a constant condition (non-zero takes the true arm) and
    collapses equal arms; otherwise a structural [select] atom. *)

val retype : Ty.scalar -> t -> t
(** Rebrand an integer sum's kind (for uniform i64 address indices).
    Raises [Invalid_argument] on an int/float coercion. *)

val skey : t -> string
(** The canonical key (computed on first demand, then memoised);
    equal keys mean equal normal forms. *)

val equal : t -> t -> bool
(** Exact: canonical keys match. *)

val same : t -> t -> bool
(** Structural identity, checked without building keys: [same a b]
    implies [equal a b]. *)

val close : tol:float -> t -> t -> bool
(** Structural equality with relative tolerance on coefficients, to
    absorb float constant-folding grouping differences. *)

val c_close : tol:float -> coeff -> coeff -> bool

val to_string : t -> string
