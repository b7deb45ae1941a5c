(* Textual IR round-trip tests: print → parse → print must be the
   identity, for scalar code, vector code produced by the vectorizer,
   and control flow. *)

open Snslp_ir
open Snslp_passes
open Snslp_vectorizer

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* Every operand in block order: instructions by name (the parser
   renumbers ids), everything else by its exact [Value.key]. *)
let operand_keys (f : Defs.func) =
  Func.fold_instrs
    (fun acc (i : Defs.instr) ->
      Array.fold_left
        (fun acc v ->
          (match v with Defs.Instr d -> "%" ^ d.Defs.iname | _ -> Value.key v) :: acc)
        acc i.Defs.ops)
    [] f
  |> List.rev

let roundtrip (f : Defs.func) =
  let text = Printer.func_to_string f in
  let f' = Ir_parser.parse text in
  check_str "print/parse/print fixpoint" text (Printer.func_to_string f');
  (* A lossy literal prints the same on both sides, so the text alone
     cannot see it; the constants' bits must survive too. *)
  Alcotest.(check (list string)) "operands survive exactly" (operand_keys f) (operand_keys f')

let test_scalar_roundtrip () =
  roundtrip
    (Snslp_frontend.Frontend.compile_one
       {|
kernel k(double A[], double B[], double s, long i) {
  A[i+0] = B[i+0] * s + 1.5;
  A[i+1] = B[i+1] - 2.0;
}
|})

let test_vector_roundtrip () =
  let k = Option.get (Snslp_kernels.Registry.find "motiv_leaf") in
  let f = Snslp_frontend.Frontend.compile_one k.Snslp_kernels.Registry.source in
  let result = Pipeline.run ~setting:(Some Config.snslp) f in
  roundtrip result.Pipeline.func

let test_gather_and_alt_roundtrip () =
  (* Code with alternating ops, splats, gathers, extracts and
     shuffles. *)
  let f =
    Snslp_frontend.Frontend.compile_one
      {|
kernel k(double A[], double B[], double C[], long i) {
  A[i+0] = B[i+0] + C[2*i+0] - B[i+0]*C[2*i+0];
  A[i+1] = B[i+1] - C[2*i+9] + B[i+1]*C[2*i+9];
}
|}
  in
  let result = Pipeline.run ~setting:(Some Config.snslp) f in
  roundtrip result.Pipeline.func

let test_control_flow_roundtrip () =
  roundtrip
    (Snslp_frontend.Frontend.compile_one
       {|
kernel k(double A[], long i) {
  if (i < 4) { A[i] = 1.0; } else { A[i+1] = 2.0; }
  A[i+2] = 3.0;
}
|})

let test_all_registry_kernels_roundtrip () =
  List.iter
    (fun (k : Snslp_kernels.Registry.t) ->
      List.iter
        (fun setting ->
          let f = Snslp_frontend.Frontend.compile_one k.Snslp_kernels.Registry.source in
          let result = Pipeline.run ~setting f in
          roundtrip result.Pipeline.func)
        [ None; Some Config.snslp ])
    Snslp_kernels.Registry.all

let test_parsed_ir_executes () =
  (* The parsed function must behave identically under the
     interpreter. *)
  let k = Option.get (Snslp_kernels.Registry.find "gromacs_force") in
  let wl = Snslp_kernels.Workload.prepare ~iters:16 k in
  let sn = Pipeline.run ~setting:(Some Config.snslp) wl.Snslp_kernels.Workload.func in
  let parsed = Ir_parser.parse (Printer.func_to_string sn.Pipeline.func) in
  let m1 = Snslp_kernels.Workload.run_interp wl sn.Pipeline.func in
  let m2 = Snslp_kernels.Workload.run_interp wl parsed in
  check "parsed IR computes the same memory" true (Snslp_interp.Memory.equal m1 m2)

let test_generated_functions_roundtrip () =
  (* Round-trip the fuzzer's generated functions, both raw and after
     the full SN-SLP pipeline — a property test over the whole space
     of shapes the generator can emit. *)
  for seed = 0 to 49 do
    let f = Snslp_fuzzer.Gen.generate ~seed () in
    roundtrip f;
    let result = Pipeline.run ~setting:(Some Config.snslp) f in
    roundtrip result.Pipeline.func
  done

(* Fuzz seed 281 folds a constant to 0.6521739130434783, which six
   significant digits would print as 0.652174. *)
let test_folded_constant_roundtrip () =
  let f = (Pipeline.run ~setting:None (Snslp_fuzzer.Gen.generate ~seed:281 ())).Pipeline.func in
  let folded = function
    | Defs.Const { lit = Lit.Float x; _ } -> x = 0.6521739130434783
    | _ -> false
  in
  check "the seed still folds that constant" true
    (Func.fold_instrs (fun acc (i : Defs.instr) -> acc || Array.exists folded i.Defs.ops) false f);
  roundtrip f

let test_parse_errors () =
  let bad src =
    try
      ignore (Ir_parser.parse src);
      false
    with Ir_parser.Parse_error _ -> true
  in
  check "garbage" true (bad "hello");
  check "missing brace" true (bad "func @f(f64* %A) {\nentry:\n  ret\n");
  check "unknown value" true
    (bad "func @f(f64* %A) {\nentry:\n  %0 = load f64 %nope\n  ret\n}\n");
  check "unknown mnemonic" true
    (bad "func @f(f64* %A) {\nentry:\n  %0 = frobnicate f64 %A\n  ret\n}\n");
  check "duplicate name" true
    (bad
       "func @f(f64* %A, i64 %i) {\nentry:\n  %0 = gep f64* %A, %i\n  %0 = gep f64* %A, \
        %i\n  ret\n}\n");
  check "ill-typed rejected by verifier" true
    (bad "func @f(f64* %A, i64 %i) {\nentry:\n  %0 = add i64 %A, %i\n  ret\n}\n");
  check "unknown block" true
    (bad "func @f(i64 %i) {\nentry:\n  br %nowhere\n}\n");
  check "numbered name over the limit" true
    (bad "func @f(f64* %A, i64 %i) {\nentry:\n  %v99999999 = gep f64* %A, %i\n  ret\n}\n")

let test_parse_branch_forms () =
  let src =
    "func @f(i64 %i) {\n\
     entry:\n\
    \  %0 = icmp.lt i32 %i, 4\n\
    \  br %0, %then1, %join2\n\
     then1:\n\
    \  br %join2\n\
     join2:\n\
    \  ret\n\
     }\n"
  in
  let f = Ir_parser.parse src in
  Alcotest.(check int) "three blocks" 3 (List.length (Func.blocks f));
  roundtrip f

(* Ids continue past every numbered name read.  Parsed IR keeps its
   names but numbers its instructions from 0, and a fresh instruction
   is named by its id: rejuvenating a parsed sse compile at avx512 used
   to print [%17 = gep f64* %b, %i] and [%17 = shuffle.0.1.2.3 ...],
   which fails to parse ("duplicate definition of %17"). *)
let test_fresh_names_after_parse () =
  let scalar =
    Snslp_frontend.Frontend.compile_one
      "kernel r(double a[], double b[], long i) { double x2 = a[i+2]; double x3 = a[i+3]; \
       a[i+2] = 5.0; double x0 = a[i+0]; double x1 = a[i+1]; b[i+0] = x0 * 2.0; b[i+1] = \
       x1 * 2.0; b[i+2] = x2 * 2.0; b[i+3] = x3 * 2.0; }"
  in
  let narrow = (Pipeline.run ~setting:(Some Config.snslp) scalar).Pipeline.func in
  let parsed = Ir_parser.parse (Printer.func_to_string narrow) in
  let wide =
    {
      Config.snslp with
      Config.target = Snslp_costmodel.Target.avx512;
      model = Snslp_costmodel.Model.x86;
      revec = true;
    }
  in
  roundtrip (Pipeline.run ~setting:(Some wide) parsed).Pipeline.func

let suite =
  [
    ( "ir-parser",
      [
        Alcotest.test_case "scalar roundtrip" `Quick test_scalar_roundtrip;
        Alcotest.test_case "vector roundtrip" `Quick test_vector_roundtrip;
        Alcotest.test_case "gather/alt roundtrip" `Quick test_gather_and_alt_roundtrip;
        Alcotest.test_case "control flow roundtrip" `Quick test_control_flow_roundtrip;
        Alcotest.test_case "registry kernels roundtrip" `Quick
          test_all_registry_kernels_roundtrip;
        Alcotest.test_case "parsed IR executes" `Quick test_parsed_ir_executes;
        Alcotest.test_case "generated functions roundtrip" `Quick
          test_generated_functions_roundtrip;
        Alcotest.test_case "folded constant roundtrip" `Quick test_folded_constant_roundtrip;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "branch forms" `Quick test_parse_branch_forms;
        Alcotest.test_case "fresh names after a parse" `Quick test_fresh_names_after_parse;
      ] );
  ]
