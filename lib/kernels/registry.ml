(* The kernel registry — our reconstruction of the paper's Table I.

   The paper extracts a small number of kernels from the C/C++ SPEC
   CPU2006 benchmarks in which Super-Node SLP activates (it names
   433.milc explicitly and reports six activating benchmarks), plus
   the two motivating examples of Section III.  SPEC sources are
   proprietary and Table I itself is an image elided from our copy of
   the paper, so each kernel below is a reconstruction: a small
   straight-line loop body, written in KernelC, containing the exact
   expression shape that benchmark family is known for — chains of a
   commutative operator and its inverse whose per-lane term order
   differs, which is precisely the pattern Super-Nodes exist to
   vectorize.  The [provenance] field states what each kernel
   models. *)

type t = {
  name : string;
  provenance : string;
  description : string;
  source : string; (* KernelC *)
  istride : int; (* how much the loop index advances per iteration *)
  extent : int; (* array elements touched per unit of i *)
  default_iters : int;
}

let motiv_leaf =
  {
    name = "motiv_leaf";
    provenance = "paper §III-B, Fig. 2";
    description = "leaf reordering across the Super-Node";
    istride = 2;
    extent = 1;
    default_iters = 4096;
    source =
      {|
kernel motiv_leaf(long A[], long B[], long C[], long D[], long i) {
  A[i+0] = B[i+0] - C[i+0] + D[i+0];
  A[i+1] = D[i+1] - C[i+1] + B[i+1];
}
|};
  }

let motiv_trunk =
  {
    name = "motiv_trunk";
    provenance = "paper §III-C, Fig. 3";
    description = "trunk + leaf reordering";
    istride = 2;
    extent = 1;
    default_iters = 4096;
    source =
      {|
kernel motiv_trunk(long A[], long B[], long C[], long D[], long i) {
  A[i+0] = B[i+0] - C[i+0] + D[i+0];
  A[i+1] = B[i+1] + D[i+1] - C[i+1];
}
|};
  }

let milc_su3 =
  {
    name = "milc_su3";
    provenance = "433.milc: complex multiply-accumulate (c += a*b on interleaved re/im)";
    description =
      "the real lane is a +/- chain, the imaginary lane all +, term orders scrambled";
    istride = 1;
    extent = 2;
    default_iters = 4096;
    source =
      {|
kernel milc_su3(double a[], double b[], double c[], long i) {
  c[2*i+0] = c[2*i+0] + a[2*i+0]*b[2*i+0] - a[2*i+1]*b[2*i+1];
  c[2*i+1] = a[2*i+0]*b[2*i+1] + a[2*i+1]*b[2*i+0] + c[2*i+1];
}
|};
  }

let gromacs_force =
  {
    name = "gromacs_force";
    provenance = "435.gromacs: bonded-force inner update";
    description = "force accumulation mixing products and their differences per lane";
    istride = 2;
    extent = 1;
    default_iters = 4096;
    source =
      {|
kernel gromacs_force(double fx[], double dx[], double dy[], double fs[], long i) {
  fx[i+0] = dx[i+0]*fs[i+0] - dy[i+0]*fs[i+0] + dx[i+0];
  fx[i+1] = dx[i+1] + dx[i+1]*fs[i+1] - dy[i+1]*fs[i+1];
}
|};
  }

let namd_elec =
  {
    name = "namd_elec";
    provenance = "444.namd: pairwise electrostatics (calc_pair_energy family)";
    description = "four-term energy expression, per-lane term order scrambled";
    istride = 2;
    extent = 1;
    default_iters = 4096;
    source =
      {|
kernel namd_elec(double e[], double r2[], double q[], double c[], long i) {
  e[i+0] = q[i+0]*c[i+0] - q[i+0]*r2[i+0] + c[i+0]*r2[i+0] - q[i+0];
  e[i+1] = c[i+1]*r2[i+1] - q[i+1] + q[i+1]*c[i+1] - q[i+1]*r2[i+1];
}
|};
  }

let dealii_assemble =
  {
    name = "dealii_assemble";
    provenance = "447.dealII: local matrix assembly contribution";
    description = "difference of products plus boundary terms, orders differ across lanes";
    istride = 2;
    extent = 1;
    default_iters = 4096;
    source =
      {|
kernel dealii_assemble(double m[], double u[], double v[], double w[], long i) {
  m[i+0] = u[i+0]*v[i+0] + w[i+0] - v[i+0] - u[i+0]*w[i+0];
  m[i+1] = w[i+1] - u[i+1]*w[i+1] + u[i+1]*v[i+1] - v[i+1];
}
|};
  }

let povray_noise =
  {
    name = "povray_noise";
    provenance = "453.povray: gradient-noise normalisation";
    description = "multiplication family with division (the * / Super-Node)";
    istride = 2;
    extent = 1;
    default_iters = 4096;
    source =
      {|
kernel povray_noise(double n[], double x[], double y[], double z[], long i) {
  n[i+0] = x[i+0] * y[i+0] / z[i+0];
  n[i+1] = x[i+1] / z[i+1] * y[i+1];
}
|};
  }

let sphinx_dist =
  {
    name = "sphinx_dist";
    provenance = "482.sphinx3: Gaussian distance accumulation (vector_dist family)";
    description = "pure minus-minus leaf reordering (leaf-only legality path)";
    istride = 2;
    extent = 1;
    default_iters = 4096;
    source =
      {|
kernel sphinx_dist(double d[], double x[], double m[], double v[], long i) {
  d[i+0] = x[i+0]*v[i+0] - m[i+0]*v[i+0] - x[i+0]*m[i+0];
  d[i+1] = x[i+1]*v[i+1] - x[i+1]*m[i+1] - m[i+1]*v[i+1];
}
|};
  }

let soplex_update =
  {
    name = "soplex_update";
    provenance = "450.soplex: sparse vector update (commutative-only chain)";
    description =
      "a control kernel without inverse operators: LSLP's Multi-Node and the Super-Node \
       form identically";
    istride = 2;
    extent = 1;
    default_iters = 4096;
    source =
      {|
kernel soplex_update(double p[], double a[], double b[], double c[], long i) {
  p[i+0] = a[i+0]*b[i+0] + c[i+0] + b[i+0];
  p[i+1] = a[i+1]*b[i+1] + c[i+1] + b[i+1];
}
|};
  }

let sphinx_gau_f32 =
  {
    name = "sphinx_gau_f32";
    provenance = "482.sphinx3: Gaussian mixture scoring (float32, 4 lanes on SSE)";
    description =
      "single-precision 4-lane unroll; one lane's sign pattern differs, so part of the \
       tree stays gathered even under SN-SLP";
    istride = 4;
    extent = 1;
    default_iters = 2048;
    source =
      {|
kernel sphinx_gau_f32(float d[], float x[], float m[], float v[], long i) {
  d[i+0] = x[i+0]*v[i+0] - m[i+0]*v[i+0] - x[i+0]*m[i+0];
  d[i+1] = x[i+1]*v[i+1] - x[i+1]*m[i+1] - m[i+1]*v[i+1];
  d[i+2] = m[i+2]*v[i+2] - x[i+2]*v[i+2] + x[i+2]*m[i+2];
  d[i+3] = x[i+3]*v[i+3] - m[i+3]*v[i+3] - x[i+3]*m[i+3];
}
|};
  }

let hmmer_path =
  {
    name = "hmmer_path";
    provenance = "456.hmmer: Viterbi path-score accumulation";
    description =
      "gather-heavy when vectorized positionally: the didactic cost model says profitable, \
       the simulated machine disagrees — LSLP's misprediction case from Fig. 5";
    istride = 2;
    extent = 1;
    default_iters = 4096;
    source =
      {|
kernel hmmer_path(double s[], double p[], double q[], double r[], double p2[], long i) {
  s[i+0] = p[i+0] - q[i+0] + r[i+0] + p2[i+0];
  s[i+1] = r[i+1] - q[i+1] + p[i+1] + p2[i+1];
}
|};
  }

(* The three kernels below are the global-packing shapes (goSLP,
   PAPERS.md; docs/PACKING.md): code where the greedy root-first
   driver's first committed (or first attempted) pack forecloses a
   better packing that a global selector finds.  Each is a
   reconstruction in the same sense as the rest of the registry: the
   expression shape the benchmark family is known for, boiled down to
   the smallest loop body that exhibits it. *)

let lbm_stream =
  {
    name = "lbm_stream";
    provenance = "470.lbm: streaming collide update with an off-grid head store";
    description =
      "the aligned store pair mixes families and is rejected; the profitable pack sits \
       one store off the greedy chunk grid, which greedy never retries";
    istride = 3;
    extent = 1;
    default_iters = 4096;
    source =
      {|
kernel lbm_stream(double o[], double a[], double b[], long i) {
  o[i+0] = a[i+4] * b[i+6];
  o[i+1] = a[i+0] + b[i+0];
  o[i+2] = a[i+1] + b[i+1];
}
|};
  }

let leslie_flux =
  {
    name = "leslie_flux";
    provenance = "437.leslie3d: flux row whose upper half reads a shifted plane";
    description =
      "the four-wide pack is profitable (one gathered operand) and greedy commits it \
       wide-first, foreclosing the two all-consecutive pairs that together save more";
    istride = 4;
    extent = 1;
    default_iters = 2048;
    source =
      {|
kernel leslie_flux(float o[], float a[], float b[], long i) {
  o[i+0] = a[i+0] + b[i+0];
  o[i+1] = a[i+1] + b[i+1];
  o[i+2] = a[i+2] + b[i+8];
  o[i+3] = a[i+3] + b[i+9];
}
|};
  }

let calculix_blend =
  {
    name = "calculix_blend";
    provenance = "454.calculix: strain add/sub blend, float32, 4 lanes on SSE";
    description =
      "one commutative lane written flipped: the greedy chain never reconsiders lane 0, \
       gathers both operand vectors and rejects; the exhaustive per-lane swap restores \
       consecutive loads";
    istride = 4;
    extent = 1;
    default_iters = 2048;
    source =
      {|
kernel calculix_blend(float o[], float a[], float b[], long i) {
  o[i+0] = b[i+0] + a[i+0];
  o[i+1] = a[i+1] - b[i+1];
  o[i+2] = a[i+2] - b[i+2];
  o[i+3] = a[i+3] + b[i+3];
}
|};
  }

(* Loop-form kernels (docs/LOOPS.md): the same expression shapes as
   their straight-line twins above, but written with the KernelC [for]
   statement the way the SPEC sources actually spell them.  Each pair
   (X_loop, X_twin) must reach bit-identical interpreter results: the
   pipeline fully unrolls the counted loop (the trip count and body
   size fit the unroll budget), unroll-and-jam collapses the straight
   line, and SN-SLP then sees exactly the seed stores the twin exposes
   directly.  The twins are what the loop kernels become after
   unrolling — they exist so tests and benches can compare against a
   loop-free baseline compiled through the identical pipeline. *)

let motiv_leaf_loop =
  {
    name = "motiv_leaf_loop";
    provenance = "paper §III-B, Fig. 2 — loop form";
    description =
      "the motivating leaf-reordering pair inside a counted loop (trip 4, step 2); full \
       unroll + jam must reproduce motiv_leaf_x4";
    istride = 8;
    extent = 1;
    default_iters = 1024;
    source =
      {|
kernel motiv_leaf_loop(long A[], long B[], long C[], long D[], long i) {
  for (long k = 0; k < 8; k = k + 2) {
    A[i+k+0] = B[i+k+0] - C[i+k+0] + D[i+k+0];
    A[i+k+1] = D[i+k+1] - C[i+k+1] + B[i+k+1];
  }
}
|};
  }

let motiv_leaf_x4 =
  {
    name = "motiv_leaf_x4";
    provenance = "paper §III-B, Fig. 2 — 4x unrolled twin of motiv_leaf_loop";
    description = "straight-line unrolling of motiv_leaf_loop (8 stores)";
    istride = 8;
    extent = 1;
    default_iters = 1024;
    source =
      {|
kernel motiv_leaf_x4(long A[], long B[], long C[], long D[], long i) {
  A[i+0] = B[i+0] - C[i+0] + D[i+0];
  A[i+1] = D[i+1] - C[i+1] + B[i+1];
  A[i+2] = B[i+2] - C[i+2] + D[i+2];
  A[i+3] = D[i+3] - C[i+3] + B[i+3];
  A[i+4] = B[i+4] - C[i+4] + D[i+4];
  A[i+5] = D[i+5] - C[i+5] + B[i+5];
  A[i+6] = B[i+6] - C[i+6] + D[i+6];
  A[i+7] = D[i+7] - C[i+7] + B[i+7];
}
|};
  }

let lbm_stream_loop =
  {
    name = "lbm_stream_loop";
    provenance = "470.lbm: streaming collide update — loop form (trip 2, step 3)";
    description =
      "lbm_stream's off-grid store triple inside a counted loop; exercises a non-unit \
       step through full unroll into lbm_stream_x2";
    istride = 6;
    extent = 1;
    default_iters = 2048;
    source =
      {|
kernel lbm_stream_loop(double o[], double a[], double b[], long i) {
  for (long k = 0; k < 6; k = k + 3) {
    o[i+k+0] = a[i+k+4] * b[i+k+6];
    o[i+k+1] = a[i+k+0] + b[i+k+0];
    o[i+k+2] = a[i+k+1] + b[i+k+1];
  }
}
|};
  }

let lbm_stream_x2 =
  {
    name = "lbm_stream_x2";
    provenance = "470.lbm: streaming collide update — 2x unrolled twin of lbm_stream_loop";
    description = "straight-line unrolling of lbm_stream_loop (6 stores)";
    istride = 6;
    extent = 1;
    default_iters = 2048;
    source =
      {|
kernel lbm_stream_x2(double o[], double a[], double b[], long i) {
  o[i+0] = a[i+4] * b[i+6];
  o[i+1] = a[i+0] + b[i+0];
  o[i+2] = a[i+1] + b[i+1];
  o[i+3] = a[i+7] * b[i+9];
  o[i+4] = a[i+3] + b[i+3];
  o[i+5] = a[i+4] + b[i+4];
}
|};
  }

let milc_su3_loop =
  {
    name = "milc_su3_loop";
    provenance = "433.milc: complex multiply-accumulate — site loop form (trip 2)";
    description =
      "milc_su3's re/im Super-Node pair inside a counted loop over two sites; full \
       unroll + jam must reproduce milc_su3_x2";
    istride = 2;
    extent = 2;
    default_iters = 2048;
    source =
      {|
kernel milc_su3_loop(double a[], double b[], double c[], long i) {
  for (long k = 0; k < 2; k = k + 1) {
    c[2*i+2*k+0] = c[2*i+2*k+0] + a[2*i+2*k+0]*b[2*i+2*k+0] - a[2*i+2*k+1]*b[2*i+2*k+1];
    c[2*i+2*k+1] = a[2*i+2*k+0]*b[2*i+2*k+1] + a[2*i+2*k+1]*b[2*i+2*k+0] + c[2*i+2*k+1];
  }
}
|};
  }

let milc_su3_x2 =
  {
    name = "milc_su3_x2";
    provenance = "433.milc: complex multiply-accumulate — 2-site unrolled twin of milc_su3_loop";
    description = "straight-line unrolling of milc_su3_loop (4 stores)";
    istride = 2;
    extent = 2;
    default_iters = 2048;
    source =
      {|
kernel milc_su3_x2(double a[], double b[], double c[], long i) {
  c[2*i+0] = c[2*i+0] + a[2*i+0]*b[2*i+0] - a[2*i+1]*b[2*i+1];
  c[2*i+1] = a[2*i+0]*b[2*i+1] + a[2*i+1]*b[2*i+0] + c[2*i+1];
  c[2*i+2] = c[2*i+2] + a[2*i+2]*b[2*i+2] - a[2*i+3]*b[2*i+3];
  c[2*i+3] = a[2*i+2]*b[2*i+3] + a[2*i+3]*b[2*i+2] + c[2*i+3];
}
|};
  }

(* soplex_update's lanes are identical, so the loop form is the rare
   case where one rolled iteration IS the lane expression: unrolling
   by the vector width manufactures the seed pair from nothing. *)
let soplex_update_loop =
  {
    name = "soplex_update_loop";
    provenance = "450.soplex: sparse vector update — loop form (trip 2)";
    description =
      "soplex_update's uniform lane inside a counted loop; full unroll + jam must \
       reproduce soplex_update";
    istride = 2;
    extent = 1;
    default_iters = 4096;
    source =
      {|
kernel soplex_update_loop(double p[], double a[], double b[], double c[], long i) {
  for (long k = 0; k < 2; k = k + 1) {
    p[i+k] = a[i+k]*b[i+k] + c[i+k] + b[i+k];
  }
}
|};
  }

(* A uniform-sign sphinx row: every lane spells the distance terms in
   the same order, which is the rolled form the sources actually have
   before anyone hand-unrolls them (sphinx_gau_f32 above models the
   hand-unrolled copy with one lane flipped).  Four f32 lanes, so the
   unroll path feeds a full-width SSE pack. *)
let sphinx_row_loop =
  {
    name = "sphinx_row_loop";
    provenance = "482.sphinx3: Gaussian distance row, float32 — loop form (trip 4)";
    description =
      "uniform-sign distance row inside a counted loop; full unroll + jam must \
       reproduce sphinx_row_x4 (4 f32 lanes)";
    istride = 4;
    extent = 1;
    default_iters = 2048;
    source =
      {|
kernel sphinx_row_loop(float d[], float x[], float m[], float v[], long i) {
  for (long k = 0; k < 4; k = k + 1) {
    d[i+k] = x[i+k]*v[i+k] - x[i+k]*m[i+k] - m[i+k]*v[i+k];
  }
}
|};
  }

let sphinx_row_x4 =
  {
    name = "sphinx_row_x4";
    provenance = "482.sphinx3: Gaussian distance row, float32 — unrolled twin of sphinx_row_loop";
    description = "straight-line unrolling of sphinx_row_loop (4 uniform f32 lanes)";
    istride = 4;
    extent = 1;
    default_iters = 2048;
    source =
      {|
kernel sphinx_row_x4(float d[], float x[], float m[], float v[], long i) {
  d[i+0] = x[i+0]*v[i+0] - x[i+0]*m[i+0] - m[i+0]*v[i+0];
  d[i+1] = x[i+1]*v[i+1] - x[i+1]*m[i+1] - m[i+1]*v[i+1];
  d[i+2] = x[i+2]*v[i+2] - x[i+2]*m[i+2] - m[i+2]*v[i+2];
  d[i+3] = x[i+3]*v[i+3] - x[i+3]*m[i+3] - m[i+3]*v[i+3];
}
|};
  }

(* One lattice site of mult_su3_mat_vec with the row loop left rolled:
   c[r] = sum_k A[r][k] * b[k] over complex entries, rotation 0.  The
   real lane alternates + and -, the imaginary lane is all + — the
   milc_su3 Super-Node pattern — and the row index [r] feeds every
   address, so vectorization is only reachable through the unroll
   path.  Three rows of ~60 post-CSE instructions sit inside the
   256-instruction full-unroll budget; the 8-site milc_mat_vec above
   deliberately does not (its straight line is ~1.1k instructions), so
   the loop subsystem is exercised at both scales. *)
let milc_mat_vec_loop =
  {
    name = "milc_mat_vec_loop";
    provenance = "433.milc: mult_su3_mat_vec, one site, row loop rolled";
    description =
      "complex 3x3 matrix-vector multiply with the row loop left as a KernelC for; full \
       unroll (trip 3) + jam must reproduce milc_mat_vec_site";
    istride = 1;
    extent = 144;
    default_iters = 1024;
    source =
      {|
kernel milc_mat_vec_loop(double a[], double b[], double c[], long i) {
  for (long r = 0; r < 3; r = r + 1) {
    c[48*i+2*r+0] = a[144*i+6*r+0]*b[48*i+0] - a[144*i+6*r+1]*b[48*i+1]
                  + a[144*i+6*r+2]*b[48*i+2] - a[144*i+6*r+3]*b[48*i+3]
                  + a[144*i+6*r+4]*b[48*i+4] - a[144*i+6*r+5]*b[48*i+5];
    c[48*i+2*r+1] = a[144*i+6*r+0]*b[48*i+1] + a[144*i+6*r+1]*b[48*i+0]
                  + a[144*i+6*r+2]*b[48*i+3] + a[144*i+6*r+3]*b[48*i+2]
                  + a[144*i+6*r+4]*b[48*i+5] + a[144*i+6*r+5]*b[48*i+4];
  }
}
|};
  }

let milc_mat_vec_site =
  {
    name = "milc_mat_vec_site";
    provenance = "433.milc: mult_su3_mat_vec, one site — unrolled twin of milc_mat_vec_loop";
    description = "straight-line unrolling of milc_mat_vec_loop's row loop (6 stores)";
    istride = 1;
    extent = 144;
    default_iters = 1024;
    source =
      {|
kernel milc_mat_vec_site(double a[], double b[], double c[], long i) {
  c[48*i+0] = a[144*i+0]*b[48*i+0] - a[144*i+1]*b[48*i+1]
            + a[144*i+2]*b[48*i+2] - a[144*i+3]*b[48*i+3]
            + a[144*i+4]*b[48*i+4] - a[144*i+5]*b[48*i+5];
  c[48*i+1] = a[144*i+0]*b[48*i+1] + a[144*i+1]*b[48*i+0]
            + a[144*i+2]*b[48*i+3] + a[144*i+3]*b[48*i+2]
            + a[144*i+4]*b[48*i+5] + a[144*i+5]*b[48*i+4];
  c[48*i+2] = a[144*i+6]*b[48*i+0] - a[144*i+7]*b[48*i+1]
            + a[144*i+8]*b[48*i+2] - a[144*i+9]*b[48*i+3]
            + a[144*i+10]*b[48*i+4] - a[144*i+11]*b[48*i+5];
  c[48*i+3] = a[144*i+6]*b[48*i+1] + a[144*i+7]*b[48*i+0]
            + a[144*i+8]*b[48*i+3] + a[144*i+9]*b[48*i+2]
            + a[144*i+10]*b[48*i+5] + a[144*i+11]*b[48*i+4];
  c[48*i+4] = a[144*i+12]*b[48*i+0] - a[144*i+13]*b[48*i+1]
            + a[144*i+14]*b[48*i+2] - a[144*i+15]*b[48*i+3]
            + a[144*i+16]*b[48*i+4] - a[144*i+17]*b[48*i+5];
  c[48*i+5] = a[144*i+12]*b[48*i+1] + a[144*i+13]*b[48*i+0]
            + a[144*i+14]*b[48*i+3] + a[144*i+15]*b[48*i+2]
            + a[144*i+16]*b[48*i+5] + a[144*i+17]*b[48*i+4];
}
|};
  }

(* 433.milc's hot function, mult_su3_mat_vec, fully unrolled: a 3x3
   complex matrix times a complex 3-vector per lattice site, over
   [sites] sites per loop iteration (milc's own site loops unroll the
   same way).  This is the registry's compile-time workload — one
   straight-line block of ~1.1k instructions, the scale at which
   whole-function vectorization cost actually matters.  The column
   order of each row's complex multiply-accumulate chain is rotated
   per (site, row) — the associations a vectorizer inherits from
   earlier passes — so every re/im store pair is the Super-Node
   pattern of [milc_su3] at scale: the real lane a +/- chain, the
   imaginary lane all +.  With half the real lane's leaves
   sign-mismatched against the imaginary lane, the didactic cost
   model rejects every tree (as LLVM's SLP does for full complex
   products without an addsub instruction) — which makes this the
   honest compile-time workload: all the expensive work (graph
   construction, look-ahead reordering, massaging, dependence
   legality, cost evaluation) runs over 24 seed pairs and then keeps
   the scalar code, exactly where whole-function SLP compile time
   goes in practice. *)
let milc_mat_vec =
  let sites = 8 in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    "kernel milc_mat_vec(double a[], double b[], double c[], long i) {\n";
  let a_ref s r k l = Printf.sprintf "a[144*i+%d]" ((18 * s) + (6 * r) + (2 * k) + l) in
  let b_ref s k l = Printf.sprintf "b[48*i+%d]" ((6 * s) + (2 * k) + l) in
  let c_ref s r l = Printf.sprintf "c[48*i+%d]" ((6 * s) + (2 * r) + l) in
  for s = 0 to sites - 1 do
    for r = 0 to 2 do
      let col j rot = (j + rot) mod 3 in
      (* Real lane: sum_k (are*bre - aim*bim). *)
      let re_terms =
        List.concat_map
          (fun j ->
            let k = col j (s + r) in
            [
              Printf.sprintf "+ %s*%s" (a_ref s r k 0) (b_ref s k 0);
              Printf.sprintf "- %s*%s" (a_ref s r k 1) (b_ref s k 1);
            ])
          [ 0; 1; 2 ]
      in
      (* Imaginary lane: sum_k (are*bim + aim*bre), same column
         rotation — the lane pair's term orders still differ because
         the real lane interleaves subtractions. *)
      let im_terms =
        List.concat_map
          (fun j ->
            let k = col j (s + r) in
            [
              Printf.sprintf "+ %s*%s" (a_ref s r k 0) (b_ref s k 1);
              Printf.sprintf "+ %s*%s" (a_ref s r k 1) (b_ref s k 0);
            ])
          [ 0; 1; 2 ]
      in
      let emit lhs terms =
        match terms with
        | first :: rest ->
            (* The leading term always starts with "+ "; drop it. *)
            let first = String.sub first 2 (String.length first - 2) in
            Buffer.add_string buf
              (Printf.sprintf "  %s = %s %s;\n" lhs first (String.concat " " rest))
        | [] -> ()
      in
      emit (c_ref s r 0) re_terms;
      emit (c_ref s r 1) im_terms
    done
  done;
  Buffer.add_string buf "}\n";
  {
    name = "milc_mat_vec";
    provenance = "433.milc: mult_su3_mat_vec, 8 lattice sites fully unrolled";
    description =
      "compile-time workload (~1.1k instructions): complex 3x3 matrix-vector multiply per \
       site; each re/im lane pair mixes + with - and scrambles term order";
    istride = 1;
    extent = 144;
    default_iters = 256;
    source = Buffer.contents buf;
  }

(* All kernels, in the order the figures report them; the large
   compile-time workload comes last. *)
let all =
  [
    milc_su3;
    gromacs_force;
    namd_elec;
    dealii_assemble;
    povray_noise;
    sphinx_dist;
    sphinx_gau_f32;
    hmmer_path;
    soplex_update;
    motiv_leaf;
    motiv_trunk;
    lbm_stream;
    leslie_flux;
    calculix_blend;
    milc_su3_loop;
    milc_su3_x2;
    motiv_leaf_loop;
    motiv_leaf_x4;
    lbm_stream_loop;
    lbm_stream_x2;
    soplex_update_loop;
    sphinx_row_loop;
    sphinx_row_x4;
    milc_mat_vec_loop;
    milc_mat_vec_site;
    milc_mat_vec;
  ]

(* Loop-form kernels paired with their straight-line twins.  The
   contract (tested in test_loops, benched in the loops experiment):
   compiling the loop form through the full pipeline and interpreting
   it gives bit-identical memory to the twin's compiled form. *)
let loop_pairs =
  [
    (milc_su3_loop, milc_su3_x2);
    (motiv_leaf_loop, motiv_leaf_x4);
    (lbm_stream_loop, lbm_stream_x2);
    (soplex_update_loop, soplex_update);
    (sphinx_row_loop, sphinx_row_x4);
    (milc_mat_vec_loop, milc_mat_vec_site);
  ]

let find name = List.find_opt (fun k -> String.equal k.name name) all
