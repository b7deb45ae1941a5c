(** Revec-style re-vectorization: re-pack adjacent same-shape vector
    bundles into wider registers when the target has spare lanes
    (vector-to-vector widening, after "Revec: Program Rejuvenation
    through Revectorization").

    Pairs of adjacent vector stores re-pack into double-width stores;
    the defining computation widens structurally (paired loads →
    wide load, same-opcode binops → wide binop, same-family pairs →
    wide alt-binop with concatenated opcode masks, same-source
    shuffles → concatenated permute masks, everything else → a
    widening concat shuffle).  Legality is the vectorizer's
    admission: each store and load pair by
    {!Snslp_analysis.Deps.bundle_placement}, all pairs fused together
    by {!Snslp_analysis.Deps.schedulable}.  A pair commits only when
    the dying narrow instructions out-price the wide replacements
    under the given machine model.  The wide code is positioned by
    codegen's scheduler ({!Snslp_vectorizer.Codegen.place}) and what
    it touched is verified locally.  Rounds iterate, so 2-lane bundles
    reach 8-lane targets.  Dead narrow chains are left to DCE. *)

open Snslp_ir
open Snslp_costmodel

type report = {
  pairs : int;  (** adjacent bundle pairs committed *)
  widened : int;  (** wide instructions emitted *)
  rounds : int;  (** widening rounds that made progress *)
}

val empty : report

val concat_mask : int -> int array
(** [concat_mask l] — the widening-concat shuffle mask [0 .. 2l-1]
    over two [l]-lane registers (exposed for the mask-arithmetic
    tests). *)

val run : ?model:Model.t -> target:Target.t -> Defs.func -> report
(** Re-widen every block of [func] in place toward [target]'s full
    register width, pricing with [model] (default {!Model.x86}). *)
