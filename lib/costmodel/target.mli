(** Target description: the machine facts the vectorizer needs. *)

type t = {
  name : string;
  vector_bits : int; (** width of a vector register *)
  has_addsub : bool; (** native alternating add/sub (SSE3 addsubpd) *)
  issue_width : int; (** superscalar issue width, used by the simulator *)
}

val sse : t
(** 128-bit, addsub, the paper's default shape. *)

val avx2 : t
(** 256-bit. *)

val avx512 : t
(** 512-bit, no addsub at full width. *)

val neon : t
(** 128-bit ARM-class, no addsub, issue width 2. *)

val sse_no_addsub : t
(** For the addsub ablation. *)

val all : t list
(** Every selectable target, in sweep order. *)

val by_name : string -> t option
(** Look a target up by its [name] field. *)

val lanes_for : t -> Snslp_ir.Ty.scalar -> int
(** Lanes a full vector register of this element type has. *)

val to_string : t -> string
