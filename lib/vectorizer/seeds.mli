(** Seed collection: runs of stores to adjacent memory locations, the
    starting points of SLP graph construction (paper §II-B). *)

open Snslp_ir

type group = Defs.instr list (** lane order = increasing address *)

val runs : Defs.block -> group list
(** The maximal runs (length >= 2) of stores one element apart, per
    address class ({!Snslp_analysis.Address.classes}), classes in
    order of first appearance, each run in offset order.  Of two stores
    to one location only the first is a candidate. *)

val elem_of_run : group -> Ty.scalar

val chunk : width:int -> 'a list -> 'a list list * 'a list
(** Cut any list into consecutive groups of exactly [width]; the
    undersized remainder comes back for narrower retries. *)

val recut : group -> group list
(** Re-split stores into runs as {!runs} does, after some members of a
    run were consumed by wider groups. *)

val widths : max_width:int -> int list
(** Power-of-two widths from [max_width] down to 2, descending. *)

val collect : Defs.block -> lanes_for:(Ty.scalar -> int) -> group list
(** Full-width groups only — a convenience for tests and analyses;
    the driver uses {!runs} with narrower-width retry. *)
