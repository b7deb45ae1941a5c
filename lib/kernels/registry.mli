(** The kernel registry — the reconstruction of the paper's Table I
    (SPEC sources are proprietary; each kernel is a straight-line loop
    body in KernelC carrying the expression shape its benchmark family
    is known for, with provenance recorded). *)

type t = {
  name : string;
  provenance : string;
  description : string;
  source : string; (** KernelC *)
  istride : int; (** loop index advance per iteration *)
  extent : int; (** array elements touched per unit of the index *)
  default_iters : int;
}

val milc_su3 : t
val gromacs_force : t
val namd_elec : t
val dealii_assemble : t
val povray_noise : t
val sphinx_dist : t
val sphinx_gau_f32 : t
val hmmer_path : t
val soplex_update : t
val motiv_leaf : t
val motiv_trunk : t

val all : t list
(** In the order the figures report them. *)

val loop_pairs : (t * t) list
(** Loop-form kernels paired with their straight-line twins: the loop
    form, compiled through unroll → unroll-and-jam → SN-SLP, must give
    bit-identical interpreter results to its twin. *)

val find : string -> t option
