(* Target description: the handful of machine facts the vectorizer
   needs.  The defaults model a 128-bit SSE-class unit with the
   [addsub] family of instructions, matching the 2-lane doubles used
   throughout the paper's examples; a 256-bit AVX2-class target is
   provided for width-ablation experiments. *)

type t = {
  name : string;
  vector_bits : int; (* width of a vector register *)
  has_addsub : bool; (* native alternating add/sub (SSE3 addsubpd) *)
  issue_width : int; (* superscalar issue width, used by the simulator *)
}

let sse = { name = "sse"; vector_bits = 128; has_addsub = true; issue_width = 4 }
let avx2 = { name = "avx2"; vector_bits = 256; has_addsub = true; issue_width = 4 }

(* 512-bit EVEX-class unit.  No 512-bit addsub exists (the addsubpd /
   vaddsubpd family stops at 256 bits), so alternating groups pay the
   add+sub+blend price at full width. *)
let avx512 =
  { name = "avx512"; vector_bits = 512; has_addsub = false; issue_width = 4 }

(* 128-bit ARM-class unit: no addsub either, and a narrower front
   end than the big x86 cores. *)
let neon =
  { name = "neon"; vector_bits = 128; has_addsub = false; issue_width = 2 }

(* A deliberately austere machine without addsub, for ablations. *)
let sse_no_addsub = { sse with name = "sse-noaddsub"; has_addsub = false }

(* Every selectable target, in sweep order. *)
let all = [ sse; avx2; avx512; neon; sse_no_addsub ]
let by_name name = List.find_opt (fun t -> String.equal t.name name) all

(* Number of lanes a vector of [elem] has on this target. *)
let lanes_for (t : t) (elem : Snslp_ir.Ty.scalar) =
  t.vector_bits / Snslp_ir.Ty.scalar_bits elem

let to_string (t : t) = t.name
