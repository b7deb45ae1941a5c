(* Workload construction and measurement for registry kernels.

   A kernel's IR function is its loop body, parameterised by the index
   argument [i]; the harness drives the loop: it allocates buffers
   from the kernel's extent, fills them deterministically, and invokes
   the function [iters] times with [i = it * istride].

   Buffer contents are dyadic rationals in [0.25, 8) — exactly
   representable, never zero — so float computations are exact for the
   shallow expressions the kernels contain and division never
   explodes; scalar-vs-vector comparisons can then demand bitwise
   equality except across reassociation, where a tight relative
   tolerance applies (the paper compiles with -ffast-math, accepting
   exactly this). *)

open Snslp_ir
open Snslp_interp

(* A deterministic hash-based value stream: same buffer, same
   contents, every run. *)
let mix (seed : int) (k : int) =
  let h = ref (seed * 0x9e3779b1) in
  h := !h lxor (k * 0x85ebca6b);
  h := !h lxor (!h lsr 13);
  h := !h * 0xc2b2ae35;
  h := !h lxor (!h lsr 16);
  !h land 0x3fffffff

let float_value ~seed k = 0.25 +. (0.25 *. float_of_int (mix seed k mod 31))
let int_value ~seed k = Int64.of_int ((mix seed k mod 33) - 16)

type t = {
  kernel : Registry.t;
  func : Defs.func; (* the unoptimised frontend output *)
  iters : int;
  buffer_size : int;
}

(* [prepare kernel] parses and lowers the kernel source. *)
let prepare ?iters (kernel : Registry.t) : t =
  let func = Snslp_frontend.Frontend.compile_one kernel.Registry.source in
  let iters = Option.value iters ~default:kernel.Registry.default_iters in
  (* The additive slack absorbs constant index offsets (the full
     benchmarks shift embedded kernel doses by constants). *)
  let buffer_size =
    (kernel.Registry.extent * ((iters + 2) * kernel.Registry.istride)) + 4096
  in
  { kernel; func; iters; buffer_size }

(* Fresh, deterministically-initialised memory matching [func]'s
   array parameters. *)
let fresh_memory (t : t) (func : Defs.func) : Memory.t =
  let memory = Memory.create () in
  Array.iter
    (fun (a : Defs.arg) ->
      match a.Defs.arg_ty with
      | Ty.Ptr s when Ty.scalar_is_float s ->
          Memory.set_float_buffer memory ~arg_pos:a.Defs.arg_pos
            (Array.init t.buffer_size (float_value ~seed:(a.Defs.arg_pos + 1)))
      | Ty.Ptr _ ->
          Memory.set_int_buffer memory ~arg_pos:a.Defs.arg_pos
            (Array.init t.buffer_size (int_value ~seed:(a.Defs.arg_pos + 1)))
      | Ty.Scalar _ | Ty.Vector _ -> ())
    (Func.args func);
  memory

(* Per-iteration argument vector: pointers into memory, the index
   argument (named [i]) set to [it * istride], any other scalars to
   fixed values. *)
let make_args (t : t) (func : Defs.func) (it : int) : Rvalue.t array =
  Array.map
    (fun (a : Defs.arg) ->
      match a.Defs.arg_ty with
      | Ty.Ptr _ -> Rvalue.R_ptr { base = a.Defs.arg_pos; offset = 0 }
      | Ty.Scalar s when Ty.scalar_is_int s ->
          if String.equal a.Defs.arg_name "i" then
            Rvalue.R_int (Int64.of_int (it * t.kernel.Registry.istride))
          else Rvalue.R_int 3L
      | Ty.Scalar _ -> Rvalue.R_float 1.5
      | Ty.Vector _ -> Rvalue.R_undef)
    (Func.args func)

(* [run_interp t func] executes the whole loop and returns the final
   memory, for semantic comparisons.  The compiled plan is staged once
   and replayed [iters] times. *)
let run_interp (t : t) (func : Defs.func) : Memory.t =
  let memory = fresh_memory t func in
  let plan = Interp.compile func in
  for it = 0 to t.iters - 1 do
    ignore (Interp.execute plan ~args:(make_args t func it) ~memory)
  done;
  memory

(* [measure t func] simulates the whole loop and returns abstract
   cycles. *)
let measure ?model ?target (t : t) (func : Defs.func) : Snslp_simperf.Simperf.result =
  let memory = fresh_memory t func in
  Snslp_simperf.Simperf.measure ?model ?target func ~memory
    ~make_args:(make_args t func) ~iters:t.iters
