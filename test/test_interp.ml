(* Interpreter unit tests: scalar and vector semantics, memory,
   control flow, error conditions. *)

open Snslp_ir
open Snslp_interp

let check = Alcotest.(check bool)
let check_f = Alcotest.(check (float 0.0))

let run_kernel src ~setup ~args_of =
  let f = Snslp_frontend.Frontend.compile_one src in
  let memory = Memory.create () in
  setup memory;
  Interp.run f ~args:(args_of f) ~memory;
  memory

let ptr pos = Rvalue.R_ptr { base = pos; offset = 0 }

let test_scalar_arith () =
  let memory =
    run_kernel
      {|
kernel k(double A[], double B[], long i) {
  A[i+0] = B[i+0] + B[i+1] * 2.0 - 1.0;
  A[i+1] = B[i+0] / B[i+1];
}
|}
      ~setup:(fun m ->
        Memory.set_float_buffer m ~arg_pos:0 (Array.make 4 0.0);
        Memory.set_float_buffer m ~arg_pos:1 [| 3.0; 4.0; 0.0; 0.0 |])
      ~args_of:(fun _ -> [| ptr 0; ptr 1; Rvalue.R_int 0L |])
  in
  let a = Memory.float_buffer memory ~arg_pos:0 in
  check_f "lane0" 10.0 a.(0);
  check_f "lane1" 0.75 a.(1)

let test_int_arith_wraps () =
  let memory =
    run_kernel {|
kernel k(long A[], long B[], long i) {
  A[i] = B[i] * B[i+1] + 1;
}
|}
      ~setup:(fun m ->
        Memory.set_int_buffer m ~arg_pos:0 (Array.make 4 0L);
        Memory.set_int_buffer m ~arg_pos:1 [| Int64.max_int; 2L; 0L; 0L |])
      ~args_of:(fun _ -> [| ptr 0; ptr 1; Rvalue.R_int 0L |])
  in
  let a = Memory.int_buffer memory ~arg_pos:0 in
  check "wraps like int64" true (Int64.equal a.(0) (Int64.add (Int64.mul Int64.max_int 2L) 1L))

let test_control_flow () =
  let memory =
    run_kernel
      {|
kernel k(double A[], long i) {
  if (i < 2) { A[i] = 1.0; } else { A[i] = 2.0; }
  A[i+4] = 9.0;
}
|}
      ~setup:(fun m -> Memory.set_float_buffer m ~arg_pos:0 (Array.make 8 0.0))
      ~args_of:(fun _ -> [| ptr 0; Rvalue.R_int 3L |])
  in
  let a = Memory.float_buffer memory ~arg_pos:0 in
  check_f "else branch" 2.0 a.(3);
  check_f "join executes" 9.0 a.(7)

let test_f32_rounding () =
  (* 0.1 is inexact; f32 must round differently from f64.  Loads round
     on read, so each operand is already f32 before the add. *)
  let memory =
    run_kernel {|
kernel k(float A[], float B[], long i) {
  A[i] = B[i] + B[i+1];
}
|}
      ~setup:(fun m ->
        Memory.set_float_buffer m ~arg_pos:0 (Array.make 4 0.0);
        Memory.set_float_buffer m ~arg_pos:1 [| 0.1; 0.2; 0.0; 0.0 |])
      ~args_of:(fun _ -> [| ptr 0; ptr 1; Rvalue.R_int 0L |])
  in
  let a = Memory.float_buffer memory ~arg_pos:0 in
  check "f32 rounded" true
    (a.(0) = Arith.round_f32 (Arith.round_f32 0.1 +. Arith.round_f32 0.2))

let test_vector_ops_direct () =
  (* Hand-build vector IR and check lane-wise semantics incl. the
     alternating opcode and shuffles. *)
  let f = Func.create ~name:"v" ~args:[ ("A", Ty.ptr Ty.F64) ] in
  let entry = Func.add_block f "entry" in
  let b = Builder.create f ~at:entry in
  let a = Defs.Arg (Func.arg f 0) in
  let v1 = Builder.vload b ~lanes:2 a in
  let g2 = Builder.gep b a (Value.const_int 2) in
  let v2 = Builder.vload b ~lanes:2 (Instr.value g2) in
  let alt = Builder.alt_binop b [| Defs.Sub; Defs.Add |] (Instr.value v1) (Instr.value v2) in
  let rev = Builder.shuffle b (Instr.value alt) (Defs.Undef (Ty.vector ~lanes:2 Ty.F64)) [| 1; 0 |] in
  let g4 = Builder.gep b a (Value.const_int 4) in
  ignore (Builder.store b (Instr.value rev) (Instr.value g4));
  let x0 = Builder.extractelement b (Instr.value alt) 0 in
  let ins = Builder.insertelement b (Defs.Undef (Ty.vector ~lanes:2 Ty.F64)) (Instr.value x0) 1 in
  let x1 = Builder.extractelement b (Instr.value ins) 1 in
  let g6 = Builder.gep b a (Value.const_int 6) in
  ignore (Builder.store b (Instr.value x1) (Instr.value g6));
  Builder.ret b;
  Verifier.verify_exn f;
  let memory = Memory.create () in
  Memory.set_float_buffer memory ~arg_pos:0 [| 10.0; 20.0; 1.0; 2.0; 0.0; 0.0; 0.0; 0.0 |];
  Interp.run f ~args:[| ptr 0 |] ~memory;
  let buf = Memory.float_buffer memory ~arg_pos:0 in
  (* alt = [10-1; 20+2] = [9; 22]; reversed stored at 4. *)
  check_f "rev lane0" 22.0 buf.(4);
  check_f "rev lane1" 9.0 buf.(5);
  check_f "extract/insert roundtrip" 9.0 buf.(6)

let test_out_of_bounds () =
  check "oob traps" true
    (try
       ignore
         (run_kernel "kernel k(double A[], long i) { A[i] = 1.0; }"
            ~setup:(fun m -> Memory.set_float_buffer m ~arg_pos:0 (Array.make 2 0.0))
            ~args_of:(fun _ -> [| ptr 0; Rvalue.R_int 5L |]));
       false
     with Memory.Out_of_bounds _ -> true)

let test_arg_count_mismatch () =
  let f = Snslp_frontend.Frontend.compile_one "kernel k(double A[], long i) { A[i] = 1.0; }" in
  check "arity checked" true
    (try
       Interp.run f ~args:[| ptr 0 |] ~memory:(Memory.create ());
       false
     with Interp.Runtime_error _ -> true)

let test_memory_snapshot_equal () =
  let m = Memory.create () in
  Memory.set_float_buffer m ~arg_pos:0 [| 1.0; 2.0 |];
  Memory.set_int_buffer m ~arg_pos:1 [| 3L |];
  let s = Memory.snapshot m in
  check "snapshot equal" true (Memory.equal m s);
  (Memory.float_buffer m ~arg_pos:0).(0) <- 9.0;
  check "diverges after write" false (Memory.equal m s);
  check "rel diff sees it" true (Memory.max_rel_diff m s > 0.1)

let test_memory_read_symmetry () =
  (* Reads mirror writes: f32 loads round, and the element type must
     match the buffer kind in both directions. *)
  let m = Memory.create () in
  Memory.set_float_buffer m ~arg_pos:0 [| 0.1 |];
  Memory.set_int_buffer m ~arg_pos:1 [| 7L |];
  (match Memory.read m ~elem:Ty.F32 ~base:0 ~off:0 with
  | Rvalue.R_float f -> check "f32 load rounds" true (f = Arith.round_f32 0.1)
  | _ -> Alcotest.fail "expected a float");
  (match Memory.read m ~elem:Ty.F64 ~base:0 ~off:0 with
  | Rvalue.R_float f -> check "f64 load exact" true (f = 0.1)
  | _ -> Alcotest.fail "expected a float");
  check "int load from float buffer rejected" true
    (try
       ignore (Memory.read m ~elem:Ty.I64 ~base:0 ~off:0);
       false
     with Invalid_argument _ -> true);
  check "float load from int buffer rejected" true
    (try
       ignore (Memory.read m ~elem:Ty.F64 ~base:1 ~off:0);
       false
     with Invalid_argument _ -> true)

let test_memory_restore () =
  let m = Memory.create () in
  Memory.set_float_buffer m ~arg_pos:0 [| 1.0; 2.0 |];
  Memory.set_int_buffer m ~arg_pos:1 [| 3L |];
  let template = Memory.snapshot m in
  (Memory.float_buffer m ~arg_pos:0).(0) <- 9.0;
  (Memory.int_buffer m ~arg_pos:1).(0) <- -1L;
  Memory.restore ~template m;
  check "restore resets to the template" true (Memory.equal template m)

let test_step_budget () =
  (* An instruction-dense kernel with a tiny budget trips the guard. *)
  let f =
    Snslp_frontend.Frontend.compile_one
      "kernel k(double A[], long i) { A[i] = A[i] + A[i+1] + A[i+2] + A[i+3]; }"
  in
  let memory = Memory.create () in
  Memory.set_float_buffer memory ~arg_pos:0 (Array.make 8 1.0);
  check "budget enforced" true
    (try
       Interp.run ~max_steps:3 f ~args:[| ptr 0; Rvalue.R_int 0L |] ~memory;
       false
     with Interp.Runtime_error _ -> true)

let suite =
  [
    ( "interp",
      [
        Alcotest.test_case "scalar arithmetic" `Quick test_scalar_arith;
        Alcotest.test_case "int64 wrap-around" `Quick test_int_arith_wraps;
        Alcotest.test_case "control flow" `Quick test_control_flow;
        Alcotest.test_case "f32 rounding" `Quick test_f32_rounding;
        Alcotest.test_case "vector operations" `Quick test_vector_ops_direct;
        Alcotest.test_case "out of bounds" `Quick test_out_of_bounds;
        Alcotest.test_case "arity mismatch" `Quick test_arg_count_mismatch;
        Alcotest.test_case "memory snapshot/equal" `Quick test_memory_snapshot_equal;
        Alcotest.test_case "memory read symmetry" `Quick test_memory_read_symmetry;
        Alcotest.test_case "memory restore" `Quick test_memory_restore;
        Alcotest.test_case "step budget" `Quick test_step_budget;
      ] );
  ]
