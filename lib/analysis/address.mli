(** Address summaries of memory instructions: base pointer plus the
    affine form of the element index, and the one grouping of accesses
    into address classes that seed collection, reductions, Revec and
    CSE share. *)

open Snslp_ir

type t = { base : Defs.value; elem : Ty.scalar; index : Affine.t }

val of_addr_value : Defs.value -> t option
(** Summarises a pointer value, looking through [gep] chains. *)

val of_instr : Defs.instr -> t option
(** The address of a load or store. *)

val same_base : t -> t -> bool

val delta : t -> t -> int option
(** Element distance, when both share a base and symbolic index. *)

val adjacent : t -> t -> bool
(** [adjacent a b]: [b] addresses the element immediately after
    [a]. *)

val consecutive : t list -> bool
(** The list walks memory one element at a time, left to right. *)

val to_string : t -> string
val pp : t Fmt.t

(** {2 Address classes}

    An address class is the accesses with one base pointer, one element
    type and one symbolic index (the index without its constant): {!delta}
    relates any two of them, and their constant offsets order them.
    Every module that groups accesses by class does it here. *)

module Class_table : Hashtbl.S with type key = t * int
(** Tables keyed by (address, tag).  Two keys are equal when their
    addresses are in one class and their tags are equal; the tag splits
    classes further (Reduction's APO, Revec's lane count, 0 where
    nothing does). *)

val offset : t -> int
(** The constant part of the index: the address's place in its class. *)

val classes : ('a -> (t * int) option) -> 'a list -> (int * 'a) list list
(** [classes key items] groups the items that [key] gives an address
    and a tag, by class and tag.  Classes come in order of first
    appearance; each lists its (offset, item) pairs sorted by offset,
    equal offsets in input order.  Items without a key are left out. *)

val distinct : (int * 'a) list -> (int * 'a) list
(** Keeps the first item at each offset of a sorted class. *)

val runs : step:int -> (int * 'a) list -> (int * 'a) list list
(** [runs ~step cls] cuts a sorted class into its maximal runs whose
    offsets increase by [step], in offset order.  Two items at one
    offset end a run: the second starts the next one. *)
