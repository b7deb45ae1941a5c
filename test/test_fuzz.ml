(* The fuzzing subsystem's own tests: generator determinism and
   validity, a bounded differential campaign (the fuzz smoke wired
   into `dune runtest`), and an end-to-end reduction exercise driven
   by an intentionally injected bug. *)

open Snslp_ir
open Snslp_vectorizer
module Gen = Snslp_fuzzer.Gen
module Oracle = Snslp_fuzzer.Oracle
module Reduce = Snslp_fuzzer.Reduce
module Campaign = Snslp_fuzzer.Campaign
module Kernelc = Snslp_fuzzer.Kernelc
module Pipeline = Snslp_passes.Pipeline

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Every generated function must verify — the generator's contract,
   asserted here over a spread of seeds (100% validity). *)
let test_generator_validity () =
  for seed = 0 to 199 do
    let f = Gen.generate ~seed () in
    (match Verifier.check f with
    | Ok () -> ()
    | Error report -> Alcotest.failf "seed %d: generated invalid IR: %s" seed report);
    let stores =
      Func.fold_instrs (fun n i -> if Instr.is_store i then n + 1 else n) 0 f
    in
    check ("seed " ^ string_of_int seed ^ " has stores") true (stores > 0)
  done

(* Same seed, same function — instruction for instruction. *)
let test_generator_determinism () =
  List.iter
    (fun seed ->
      let a = Printer.func_to_string (Gen.generate ~seed ()) in
      let b = Printer.func_to_string (Gen.generate ~seed ()) in
      check_str (Printf.sprintf "seed %d deterministic" seed) a b)
    [ 0; 1; 7; 42; 1234; 99999 ]

(* The generator must actually feed the vectorizer: a healthy share of
   generated functions must get at least one vectorized tree under
   SN-SLP, otherwise the differential campaign fuzzes nothing. *)
let test_generator_vectorizes () =
  let vectorized = ref 0 in
  let n = 100 in
  for seed = 0 to n - 1 do
    let f = Gen.generate ~seed () in
    match (Pipeline.run ~setting:(Some Config.snslp) f).Pipeline.vect_report with
    | Some rep ->
        if
          List.exists (fun (t : Vectorize.tree_report) -> t.Vectorize.vectorized) rep.Vectorize.trees
        then incr vectorized
    | None -> ()
  done;
  if !vectorized * 100 / n < 30 then
    Alcotest.failf "only %d/%d generated functions vectorized" !vectorized n

(* Bounded fuzz smoke: a fixed-seed differential campaign across every
   configuration, including the parallel-driver determinism axis.
   Zero findings expected — a regression that breaks semantics
   anywhere in the pipeline fails this test. *)
let test_campaign_smoke () =
  let result = Campaign.run ~jobs:2 ~reduce:true ~seed:42 ~cases:200 () in
  check_int "cases" 200 result.Campaign.cases;
  List.iter
    (fun (r : Campaign.case_report) ->
      List.iter
        (fun f ->
          Alcotest.failf "case seed %d: %s" r.Campaign.case_seed
            (Oracle.finding_to_string f))
        r.Campaign.findings)
    result.Campaign.reports;
  check "clean" true (Campaign.clean result)

(* The packing-axis campaign: 2000 cases differentially checking
   global pack selection (default beam, and beam 2 with a tight node
   budget so the budget-exhaustion path is exercised) against greedy
   on the same functions.  The oracle's validator-backed
   [Static_mismatch] verdicts count as findings, so a clean run also
   means zero translation-validator mismatches.  Narrower config list
   than the all-configs smoke, deeper case count: this is the
   dedicated soak for the global packing path. *)
let packing_configs : (string * Pipeline.setting) list =
  [
    ("snslp-greedy", Some Config.snslp);
    ( "snslp-global",
      Some
        {
          Config.snslp with
          Config.packing =
            Config.Global
              { beam = Config.default_beam; node_budget = Config.default_node_budget };
        } );
    ( "snslp-global-b2",
      Some { Config.snslp with Config.packing = Config.Global { beam = 2; node_budget = 64 } }
    );
  ]

let test_campaign_packing () =
  let result =
    Campaign.run ~configs:packing_configs ~reduce:true ~seed:7 ~cases:2000 ()
  in
  check_int "cases" 2000 result.Campaign.cases;
  List.iter
    (fun (r : Campaign.case_report) ->
      List.iter
        (fun f ->
          Alcotest.failf "case seed %d: %s" r.Campaign.case_seed
            (Oracle.finding_to_string f))
        r.Campaign.findings)
    result.Campaign.reports;
  check "clean" true (Campaign.clean result)

(* The target-axis campaign: the same function compiled for every
   backend flavour — each with its own register width, cost tables and
   addsub availability — plus the revec re-widening pass on the widest
   one, all against the scalar reference.  Lane count must never leak
   into semantics: wider targets pack more, they must not compute
   differently. *)
let target_configs : (string * Pipeline.setting) list =
  let open Snslp_costmodel in
  let on_target name (tgt : Target.t) revec =
    ( name,
      Some
        { Config.snslp with Config.target = tgt; model = Model.for_target tgt; revec } )
  in
  [
    on_target "snslp-sse" Target.sse false;
    on_target "snslp-avx2" Target.avx2 false;
    on_target "snslp-avx512" Target.avx512 false;
    on_target "snslp-neon" Target.neon false;
    on_target "snslp-avx512-revec" Target.avx512 true;
    on_target "snslp-avx2-revec" Target.avx2 true;
  ]

let test_campaign_targets () =
  let result =
    Campaign.run ~configs:target_configs ~reduce:true ~seed:19 ~cases:1000 ()
  in
  check_int "cases" 1000 result.Campaign.cases;
  List.iter
    (fun (r : Campaign.case_report) ->
      List.iter
        (fun f ->
          Alcotest.failf "case seed %d: %s" r.Campaign.case_seed
            (Oracle.finding_to_string f))
        r.Campaign.findings)
    result.Campaign.reports;
  check "clean" true (Campaign.clean result)

(* Flip the first float add into a sub — a miscompile the size of one
   bit, applied through the test-only hook to the *optimized* function
   only, so the reference stays intact. *)
let flip_first_float_add (f : Defs.func) =
  let flipped = ref false in
  Func.iter_instrs
    (fun i ->
      if
        (not !flipped)
        && i.Defs.op = Defs.Binop Defs.Add
        && Ty.scalar_is_float (Ty.elem i.Defs.ty)
      then begin
        i.Defs.op <- Defs.Binop Defs.Sub;
        flipped := true
      end)
    f

(* End-to-end: the oracle catches the injected bug, and the reducer
   shrinks the case to a small reproducer that still triggers it,
   still verifies, and still round-trips through the textual IR. *)
let test_injected_bug_reduces () =
  (* A seed whose function keeps float adds after optimization under
     every configuration, so the injection always bites. *)
  let func = Gen.generate ~seed:2024 () in
  Fun.protect
    ~finally:(fun () -> Oracle.inject_bug := None)
    (fun () ->
      Oracle.inject_bug := Some flip_first_float_add;
      let findings = Oracle.run_case func in
      check "oracle catches the injected bug" true (findings <> []);
      let first = List.hd findings in
      let configs =
        List.filter
          (fun (name, _) -> String.equal name first.Oracle.config)
          Oracle.default_configs
      in
      let fails g = Oracle.run_case ~configs g <> [] in
      let reduced = Reduce.run ~fails func in
      check "reduced still fails" true (fails reduced);
      (match Verifier.check reduced with
      | Ok () -> ()
      | Error report -> Alcotest.failf "reduced function invalid: %s" report);
      let n = Func.num_instrs reduced in
      if n > 20 then
        Alcotest.failf "reduced reproducer still has %d instrs (want <= 20)" n;
      let text = Printer.func_to_string reduced in
      check_str "reduced reproducer round-trips" text
        (Printer.func_to_string (Ir_parser.parse text)))

(* --- Loop-aware static catches --------------------------------------------- *)

(* Drop the function's final store — on an unrolled constant-trip
   loop that is the epilogue store, the classic off-by-one unroll
   bug.  Applied to the optimized side only. *)
let drop_last_store (f : Defs.func) =
  let last = ref None in
  Func.iter_instrs (fun i -> if Instr.is_store i then last := Some i) f;
  match !last with
  | Some s -> List.iter (fun b -> Block.discard_if b (fun i -> i == s)) f.Defs.blocks
  | None -> ()

(* A dropped epilogue store must be caught *statically*: the
   validator executes the constant-trip loop concretely, so the
   missing final location is a [Static_mismatch], not just an
   interpreter diff. *)
let test_loop_injected_bug_caught_statically () =
  let func =
    Snslp_frontend.Frontend.compile_one
      {|
kernel s8(double a[], double b[], double c[], long i) {
  for (long k = 0; k < 8; k = k + 1) { c[k] = a[k] * 2.0 + b[k]; }
}
|}
  in
  Fun.protect
    ~finally:(fun () -> Oracle.inject_bug := None)
    (fun () ->
      Oracle.inject_bug := Some drop_last_store;
      let findings = Oracle.run_case func in
      check "oracle catches the dropped store" true (findings <> []);
      check "the validator catches it statically" true
        (List.exists
           (fun (fd : Oracle.finding) ->
             match fd.Oracle.kind with Oracle.Static_mismatch _ -> true | _ -> false)
           findings))

(* The loopy campaign with validation on: zero [Static_mismatch] —
   the inductive validator never disproves a correct loop
   transformation. *)
let test_loopy_campaign_no_static_mismatch () =
  let result = Campaign.run ~profile:Gen.loopy_profile ~seed:23 ~cases:300 () in
  check_int "cases" 300 result.Campaign.cases;
  List.iter
    (fun (r : Campaign.case_report) ->
      List.iter
        (fun (fd : Oracle.finding) ->
          match fd.Oracle.kind with
          | Oracle.Static_mismatch _ ->
              Alcotest.failf "case seed %d: false static mismatch: %s" r.Campaign.case_seed
                (Oracle.finding_to_string fd)
          | _ ->
              Alcotest.failf "case seed %d: %s" r.Campaign.case_seed
                (Oracle.finding_to_string fd))
        r.Campaign.findings)
    result.Campaign.reports;
  check "clean" true (Campaign.clean result)

(* Regression: campaign seed 42, case seed 42008964, reduced by
   Reduce.run to 16 instructions.  The +/- chain feeds the same CSE'd
   load of A[1] with both signs; reduction vectorization grouped the
   [+] occurrence into the vector run A[0..1] and, filtering leftovers
   by instruction id, dropped the [-] occurrence entirely — computing
   an extra +A[1].  Fixed by tracking grouped leaf *occurrences*. *)
let reduced_repro_inverse_pair =
  {|func @fuzz42008964(f64* %A, f64* %B, f64* %C, f64* %D, i64* %P, i64* %Q, i64* %R, i64* %S, i64 %i) {
entry:
  %31 = gep f64* %B, 1
  %32 = load f64 %31
  %33 = gep f64* %A, 0
  %34 = load f64 %33
  %35 = fadd f64 %32, %34
  %36 = gep f64* %A, 1
  %37 = load f64 %36
  %38 = fsub f64 %35, %37
  %39 = gep f64* %A, 1
  %40 = load f64 %39
  %41 = fadd f64 %38, %40
  %42 = gep f64* %B, 2
  %43 = load f64 %42
  %44 = fadd f64 %41, %43
  %45 = gep f64* %D, 1
  store %44, %45
  ret
}
|}

let test_regression_reduction_inverse_pair () =
  let func = Ir_parser.parse reduced_repro_inverse_pair in
  List.iter
    (fun f -> Alcotest.failf "regression resurfaced: %s" (Oracle.finding_to_string f))
    (Oracle.run_case func)

(* The reducer refuses inputs that do not fail: no vacuous minimization. *)
let test_reduce_requires_failure () =
  let func = Gen.generate ~seed:3 () in
  match Reduce.run ~fails:(fun _ -> false) func with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Reduce.run accepted a non-failing input"

(* The per-case seed schedule must be reproducible from the campaign
   seed, so a failing case regenerates in isolation. *)
(* Every configuration verifies after each pass, o3 included.  An
   integer division (outside the IR) sits in a block control never
   reaches, so the reference runs clean, and the first pass leaves it
   alone: the crash must name that pass, not the final verify. *)
let test_o3_verifies_each_pass () =
  let f = Func.create ~name:"stray_div" ~args:[ ("A", Ty.ptr Ty.I64); ("i", Ty.i64) ] in
  let entry = Func.add_block f "entry" in
  let dead = Func.add_block f "dead" in
  let b = Builder.create f ~at:entry in
  let a = Defs.Arg (Func.arg f 0) and i = Defs.Arg (Func.arg f 1) in
  ignore (Builder.store b i (Instr.value (Builder.gep b a i)));
  Builder.ret b;
  Builder.position b dead;
  let q = Builder.add b i i in
  q.Defs.op <- Defs.Binop Defs.Div;
  ignore (Builder.store b (Instr.value q) (Instr.value (Builder.gep b a i)));
  Builder.ret b;
  match Oracle.run_case ~configs:[ ("o3", None) ] f with
  | [ { Oracle.config = "o3"; kind = Oracle.Crash msg } ] ->
      if not (contains msg "after pass fold") then
        Alcotest.failf "the crash does not name the first pass: %s" msg
  | findings ->
      Alcotest.failf "expected one o3 crash, got: %s"
        (String.concat "; " (List.map Oracle.finding_to_string findings))

let test_case_seed_schedule () =
  let seed = 42 in
  let direct = Gen.generate ~seed:(Campaign.case_seed ~seed 17) () in
  let again = Gen.generate ~seed:(Campaign.case_seed ~seed 17) () in
  check_str "case 17 regenerates" (Printer.func_to_string direct)
    (Printer.func_to_string again)

(* The memory-order campaign: 600 {!Kernelc} kernels, where cells are
   written twice, lanes read their neighbours' cells and unrolled
   loops interleave store groups' lanes, through every configuration
   against the scalar reference, each pass verified.  {!Gen} never
   builds these shapes; 13 of these kernels crashed the vectorizer
   while codegen ordered memory by placement rank.  The translation
   validator checks every pass: on kernels whose sequential if/else
   arms nest selects over the same cells (486 and 487) its normal
   forms once took hundreds of megabytes, and now end [Unknown]
   "normal form too large". *)
let test_kernelc_campaign () =
  check_str "the generator is deterministic" (Kernelc.generate ~seed:7) (Kernelc.generate ~seed:7);
  for seed = 0 to 599 do
    let src = Kernelc.generate ~seed in
    match Oracle.run_case ~validate:true (Snslp_frontend.Frontend.compile_one src) with
    | [] -> ()
    | findings ->
        Alcotest.failf "kernel seed %d: %s\n%s" seed
          (String.concat "; " (List.map Oracle.finding_to_string findings))
          src
  done

let suite =
  [
    ( "fuzz",
      [
        Alcotest.test_case "generator validity (200 seeds)" `Quick test_generator_validity;
        Alcotest.test_case "generator determinism" `Quick test_generator_determinism;
        Alcotest.test_case "generator feeds the vectorizer" `Quick test_generator_vectorizes;
        Alcotest.test_case "campaign smoke (200 cases, all configs)" `Slow test_campaign_smoke;
        Alcotest.test_case "campaign packing axis (2000 cases)" `Slow
          test_campaign_packing;
        Alcotest.test_case "campaign target axis (1000 cases)" `Slow
          test_campaign_targets;
        Alcotest.test_case "injected bug is caught and reduced" `Quick
          test_injected_bug_reduces;
        Alcotest.test_case "loop bug caught statically" `Quick
          test_loop_injected_bug_caught_statically;
        Alcotest.test_case "loopy campaign: no static mismatch (300 cases)" `Slow
          test_loopy_campaign_no_static_mismatch;
        Alcotest.test_case "reducer rejects non-failing input" `Quick
          test_reduce_requires_failure;
        Alcotest.test_case "regression: reduction drops inverse-paired leaf" `Quick
          test_regression_reduction_inverse_pair;
        Alcotest.test_case "case seeds regenerate" `Quick test_case_seed_schedule;
        Alcotest.test_case "o3 verifies after each pass" `Quick test_o3_verifies_each_pass;
        Alcotest.test_case "memory-order campaign (600 kernels)" `Slow test_kernelc_campaign;
      ] );
  ]
