(* Differential tests between the two interpreter engines: the boxed
   tree-walker and the staged compiled-closure engine must be
   observationally identical — bit-exact final memory, identical step
   counts, byte-identical trap messages, same step-budget behaviour —
   over generated IR (scalar), vectorized pipeline output (vector ops,
   shuffles, alternating opcodes), and hand-built edge cases.

   Two deliberate divergences are *not* tested for parity because the
   compiled engine's scalar banks unbox eagerly (see docs/INTERP.md):
   extracting an undef lane, and selecting an undef scalar on the
   taken branch, trap at the producer instead of the first use. *)

open Snslp_ir
open Snslp_interp
module Gen = Snslp_fuzzer.Gen
module Oracle = Snslp_fuzzer.Oracle
module Pipeline = Snslp_passes.Pipeline

let check = Alcotest.(check bool)
let check_f = Alcotest.(check (float 0.0))
let ptr pos = Rvalue.R_ptr { base = pos; offset = 0 }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

type outcome = { trap : string option; steps : int; memory : Memory.t }

let run_one engine ?max_steps (func : Defs.func) ~(args : Rvalue.t array)
    ~(memory : Memory.t) : outcome =
  match Interp.exec ~engine ?max_steps func ~args ~memory with
  | steps -> { trap = None; steps; memory }
  | exception e -> { trap = Some (Printexc.to_string e); steps = -1; memory }

let describe = function None -> "ok" | Some t -> t

(* Run [func] on both engines over identically-built state and demand
   observational identity; returns the compiled engine's outcome for
   further assertions. *)
let assert_parity ?max_steps name (func : Defs.func) ~(memory : unit -> Memory.t)
    ~(args : unit -> Rvalue.t array) : outcome =
  let a = run_one Interp.Tree ?max_steps func ~args:(args ()) ~memory:(memory ()) in
  let b = run_one Interp.Compiled ?max_steps func ~args:(args ()) ~memory:(memory ()) in
  (match (a.trap, b.trap) with
  | None, None ->
      if a.steps <> b.steps then
        Alcotest.failf "%s: step counts differ (%d vs %d)" name a.steps b.steps
  | Some x, Some y ->
      if not (String.equal x y) then Alcotest.failf "%s: traps differ (%s vs %s)" name x y
  | x, y ->
      Alcotest.failf "%s: one engine trapped (tree: %s, compiled: %s)" name (describe x)
        (describe y));
  if not (Memory.equal a.memory b.memory) then
    Alcotest.failf "%s: final memories differ" name;
  b

(* Parity under the oracle's own harness (deterministic memory and
   argument construction). *)
let oracle_parity name func =
  ignore
    (assert_parity name func
       ~memory:(fun () -> Oracle.fresh_memory func)
       ~args:(fun () -> Oracle.make_args func))

let engines_agree (func : Defs.func) : bool =
  let a =
    run_one Interp.Tree func ~args:(Oracle.make_args func)
      ~memory:(Oracle.fresh_memory func)
  in
  let b =
    run_one Interp.Compiled func ~args:(Oracle.make_args func)
      ~memory:(Oracle.fresh_memory func)
  in
  (match (a.trap, b.trap) with
  | None, None -> a.steps = b.steps
  | Some x, Some y -> String.equal x y
  | _ -> false)
  && Memory.equal a.memory b.memory

(* The acceptance sweep: 1000 deterministic generator seeds, bit-exact
   agreement on every one. *)
let test_sweep_1000_seeds () =
  for seed = 0 to 999 do
    oracle_parity (Printf.sprintf "seed %d" seed) (Gen.generate ~seed ())
  done

(* Random-seed property on top of the deterministic sweep. *)
let prop_engines_agree =
  QCheck.Test.make ~count:500 ~name:"compiled engine == tree-walker (500 random seeds)"
    QCheck.(make Gen.(int_bound 10_000_000))
    (fun seed -> engines_agree (Snslp_fuzzer.Gen.generate ~seed ()))

(* Generated IR is scalar; vector loads/stores, shuffles, inserts,
   extracts and alternating opcodes only appear after vectorization —
   so the engines must also agree on every pipeline configuration's
   output. *)
let test_optimized_parity () =
  for seed = 0 to 49 do
    let func = Gen.generate ~seed () in
    List.iter
      (fun (name, setting) ->
        let opt = (Pipeline.run ~setting func).Pipeline.func in
        oracle_parity (Printf.sprintf "seed %d, config %s" seed name) opt)
      Oracle.default_configs
  done

(* A plan is reusable: same function executed twice through one plan
   must behave like two fresh tree-walks. *)
let test_plan_reuse () =
  let func = Gen.generate ~seed:7 () in
  let plan = Interp.compile func in
  let m1 = Oracle.fresh_memory func in
  let n1 = Interp.execute plan ~args:(Oracle.make_args func) ~memory:m1 in
  let m2 = Oracle.fresh_memory func in
  let n2 = Interp.execute plan ~args:(Oracle.make_args func) ~memory:m2 in
  Alcotest.(check int) "same steps on reuse" n1 n2;
  check "same memory on reuse" true (Memory.equal m1 m2);
  check "matches the tree-walker" true
    (Memory.equal m1 (Oracle.run_memory ~engine:Interp.Tree func))

(* The on_exec stream must be identical: same instructions, same
   order, on both engines. *)
let test_on_exec_stream () =
  let func = Gen.generate ~seed:11 () in
  let trace engine =
    let ids = ref [] in
    ignore
      (Interp.exec ~engine
         ~on_exec:(fun i -> ids := i.Defs.iid :: !ids)
         func ~args:(Oracle.make_args func) ~memory:(Oracle.fresh_memory func));
    List.rev !ids
  in
  check "identical on_exec streams" true (trace Interp.Tree = trace Interp.Compiled)

(* --- Edge cases ------------------------------------------------------------ *)

let compile_src = Snslp_frontend.Frontend.compile_one

let test_cond_br_both_arms () =
  let f =
    compile_src
      "kernel k(double A[], long i) { if (i < 2) { A[i] = 1.0; } else { A[i] = 2.0; } \
       A[i+4] = 9.0; }"
  in
  List.iter
    (fun idx ->
      let out =
        assert_parity (Printf.sprintf "cond_br i=%Ld" idx) f
          ~memory:(fun () ->
            let m = Memory.create () in
            Memory.set_float_buffer m ~arg_pos:0 (Array.make 8 0.0);
            m)
          ~args:(fun () -> [| ptr 0; Rvalue.R_int idx |])
      in
      let a = Memory.float_buffer out.memory ~arg_pos:0 in
      let i = Int64.to_int idx in
      check_f "arm value" (if i < 2 then 1.0 else 2.0) a.(i);
      check_f "join" 9.0 a.(i + 4))
    [ 0L; 3L ]

(* f32 rounding at every producer: loads round on read, binops round
   after the operation, stores round on write — on both engines, with
   deliberately f32-inexact inputs. *)
let test_f32_rounding_producers () =
  let f =
    compile_src
      "kernel k(float A[], float B[], long i) { A[i] = B[i] + B[i+1]; A[i+1] = B[i+2] * \
       B[i+3]; A[i+2] = B[i+4]; }"
  in
  let vals = [| 0.1; 0.2; 0.3; 0.7; 1.1; 0.0; 0.0; 0.0 |] in
  let out =
    assert_parity "f32 producers" f
      ~memory:(fun () ->
        let m = Memory.create () in
        Memory.set_float_buffer m ~arg_pos:0 (Array.make 8 0.0);
        Memory.set_float_buffer m ~arg_pos:1 (Array.copy vals);
        m)
      ~args:(fun () -> [| ptr 0; ptr 1; Rvalue.R_int 0L |])
  in
  let r = Arith.round_f32 in
  let a = Memory.float_buffer out.memory ~arg_pos:0 in
  check_f "load+add rounds" (r (r vals.(0) +. r vals.(1))) a.(0);
  check_f "load+mul rounds" (r (r vals.(2) *. r vals.(3))) a.(1);
  check_f "pass-through load rounds" (r vals.(4)) a.(2)

let test_oob_trap_parity () =
  let f = compile_src "kernel k(double A[], long i) { A[i] = 1.0; }" in
  let out =
    assert_parity "oob" f
      ~memory:(fun () ->
        let m = Memory.create () in
        Memory.set_float_buffer m ~arg_pos:0 (Array.make 2 0.0);
        m)
      ~args:(fun () -> [| ptr 0; Rvalue.R_int 5L |])
  in
  match out.trap with
  | Some t -> check "names the access" true (contains t "arg0[5] out of bounds (size 2)")
  | None -> Alcotest.fail "expected an out-of-bounds trap"

let test_step_budget_parity () =
  let f =
    compile_src
      "kernel k(double A[], long i) { A[i] = A[i] + A[i+1] + A[i+2] + A[i+3]; }"
  in
  let out =
    assert_parity ~max_steps:3 "budget" f
      ~memory:(fun () ->
        let m = Memory.create () in
        Memory.set_float_buffer m ~arg_pos:0 (Array.make 8 1.0);
        m)
      ~args:(fun () -> [| ptr 0; Rvalue.R_int 0L |])
  in
  match out.trap with
  | Some t -> check "budget message" true (contains t "step budget exceeded")
  | None -> Alcotest.fail "expected the step budget to trip"

let test_arity_parity () =
  let f = compile_src "kernel k(double A[], long i) { A[i] = 1.0; }" in
  let out =
    assert_parity "arity" f ~memory:Memory.create ~args:(fun () -> [| ptr 0 |])
  in
  match out.trap with
  | Some t -> check "arity message" true (contains t "expects 2 arguments, got 1")
  | None -> Alcotest.fail "expected an arity trap"

(* --- Hand-built vector edge cases ------------------------------------------ *)

let build_vec_func build =
  let f = Func.create ~name:"v" ~args:[ ("A", Ty.ptr Ty.F64) ] in
  let entry = Func.add_block f "entry" in
  let b = Builder.create f ~at:entry in
  build f b;
  Builder.ret b;
  Verifier.verify_exn f;
  f

let vec_memory () =
  let m = Memory.create () in
  Memory.set_float_buffer m ~arg_pos:0 [| 10.0; 20.0; 1.0; 2.0; 0.0; 0.0; 0.0; 0.0 |];
  m

(* Shuffle with an undef operand, mask confined to the defined vector:
   a fully-defined result on both engines. *)
let test_shuffle_undef_operand () =
  let f =
    build_vec_func (fun fn b ->
        let a = Defs.Arg (Func.arg fn 0) in
        let v1 = Builder.vload b ~lanes:2 a in
        let rev =
          Builder.shuffle b (Instr.value v1)
            (Defs.Undef (Ty.vector ~lanes:2 Ty.F64))
            [| 1; 0 |]
        in
        let g4 = Builder.gep b a (Value.const_int 4) in
        ignore (Builder.store b (Instr.value rev) (Instr.value g4)))
  in
  let out = assert_parity "shuffle undef operand" f ~memory:vec_memory ~args:(fun () -> [| ptr 0 |]) in
  let buf = Memory.float_buffer out.memory ~arg_pos:0 in
  check "clean run" true (out.trap = None);
  check_f "lane0" 20.0 buf.(4);
  check_f "lane1" 10.0 buf.(5)

(* Mask reaching into the undef operand: the resulting vector carries
   an [R_undef] lane, and storing it traps identically on both engines
   — after the defined lane was already written. *)
let test_shuffle_undef_lane_store_traps () =
  let f =
    build_vec_func (fun fn b ->
        let a = Defs.Arg (Func.arg fn 0) in
        let v1 = Builder.vload b ~lanes:2 a in
        let mix =
          Builder.shuffle b (Instr.value v1)
            (Defs.Undef (Ty.vector ~lanes:2 Ty.F64))
            [| 0; 2 |]
        in
        let g4 = Builder.gep b a (Value.const_int 4) in
        ignore (Builder.store b (Instr.value mix) (Instr.value g4)))
  in
  let out =
    assert_parity "shuffle undef lane" f ~memory:vec_memory ~args:(fun () -> [| ptr 0 |])
  in
  (match out.trap with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a trap storing an undef lane");
  check_f "defined lane stored before the trap" 10.0
    (Memory.float_buffer out.memory ~arg_pos:0).(4)

(* Insert into undef: the written lane is defined and extractable; the
   untouched lane stays undef. *)
let test_insert_into_undef () =
  let f =
    build_vec_func (fun fn b ->
        let a = Defs.Arg (Func.arg fn 0) in
        let v1 = Builder.vload b ~lanes:2 a in
        let x0 = Builder.extractelement b (Instr.value v1) 0 in
        let ins =
          Builder.insertelement b
            (Defs.Undef (Ty.vector ~lanes:2 Ty.F64))
            (Instr.value x0) 1
        in
        let x1 = Builder.extractelement b (Instr.value ins) 1 in
        let g6 = Builder.gep b a (Value.const_int 6) in
        ignore (Builder.store b (Instr.value x1) (Instr.value g6)))
  in
  let out =
    assert_parity "insert into undef" f ~memory:vec_memory ~args:(fun () -> [| ptr 0 |])
  in
  check "clean run" true (out.trap = None);
  check_f "extracted the inserted lane" 10.0
    (Memory.float_buffer out.memory ~arg_pos:0).(6)

let suite =
  [
    ( "engines",
      [
        Alcotest.test_case "1000-seed differential sweep" `Quick test_sweep_1000_seeds;
        QCheck_alcotest.to_alcotest prop_engines_agree;
        Alcotest.test_case "parity on vectorized output (50 seeds x 7 configs)" `Slow
          test_optimized_parity;
        Alcotest.test_case "plan reuse" `Quick test_plan_reuse;
        Alcotest.test_case "identical on_exec streams" `Quick test_on_exec_stream;
        Alcotest.test_case "cond_br both arms" `Quick test_cond_br_both_arms;
        Alcotest.test_case "f32 rounding at every producer" `Quick
          test_f32_rounding_producers;
        Alcotest.test_case "OOB trap message parity" `Quick test_oob_trap_parity;
        Alcotest.test_case "step budget parity" `Quick test_step_budget_parity;
        Alcotest.test_case "arity trap parity" `Quick test_arity_parity;
        Alcotest.test_case "shuffle with undef operand" `Quick test_shuffle_undef_operand;
        Alcotest.test_case "shuffle undef lane store traps" `Quick
          test_shuffle_undef_lane_store_traps;
        Alcotest.test_case "insert into undef" `Quick test_insert_into_undef;
      ] );
  ]
