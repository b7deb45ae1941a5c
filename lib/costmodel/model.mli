(** Cost models.

    A model prices individual instructions; the vectorizer combines
    these into per-node savings and vectorizes when the total is below
    the threshold.  {!paper} reproduces the didactic numbers of the
    paper's worked examples exactly; {!x86} is a reciprocal-throughput
    model of an SSE/AVX2-class core, also used by the performance
    simulator. *)

open Snslp_ir

type op_class =
  | C_int_addsub
  | C_int_mul
  | C_fp_addsub
  | C_fp_mul
  | C_fp_div
  | C_load
  | C_store
  | C_cmp
  | C_select
  | C_gep
  | C_insert
  | C_extract
  | C_shuffle

type t = {
  name : string;
  scalar : op_class -> float; (** one scalar instruction *)
  vector : op_class -> lanes:int -> float; (** one whole-vector instruction *)
  alt : Target.t -> lanes:int -> fam_mul:bool -> float;
      (** one alternating-opcode vector instruction *)
  gather_lane : float; (** per-lane cost of packing scalars into a vector *)
  splat : float; (** broadcasting one scalar to all lanes *)
  extract : float; (** one extractelement for an external use *)
}

val class_of_binop : Defs.binop -> Ty.t -> op_class
(** Raises [Invalid_argument] on integer division. *)

val class_of_instr : Defs.instr -> op_class option
(** [None] for [Alt_binop], which is priced via {!field-alt}. *)

val instr_cost : t -> Target.t -> Defs.instr -> float
(** Cost in abstract cycles of one execution of the instruction —
    the pricing shared by the performance simulator (per dynamic
    instruction) and the global pack selector (per live static
    instruction). *)

val paper : t
val x86 : t

val avx512 : t
(** EVEX-class: full-throughput wide arithmetic, pricier lane-crossing
    shuffles and domain moves. *)

val neon : t
(** ARM-class: cheap domain moves, slower multiplies and divides. *)

val for_target : Target.t -> t
(** The model matching a target's flavour: {!avx512} and {!neon} for
    those targets, {!x86} for every x86-shaped one. *)

val by_name : string -> t option
