(** Plain-text tables and bars for the experiment harness. *)

val render : headers:string list -> string list list -> string
(** Aligned table: headers, a rule, then rows.  The first column is
    left-aligned, the rest right-aligned. *)

val bar : ?width:int -> max_value:float -> float -> string
(** A ['#'] bar scaled to [width] columns. *)

val section : string -> string
