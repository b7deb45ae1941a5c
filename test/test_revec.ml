(* The Revec re-widening pass:
   - concat-mask arithmetic (the widening shuffle primitive);
   - rejuvenation: IR vectorized for a narrow target re-packs to the
     wide target's full register width, semantics intact;
   - rounds compose (2-lane sse bundles reach the 8-lane avx512 width
     through two pairings);
   - pipeline integration: the revec stage reports its counters and
     the translation validator signs off on every pass;
   - a 500-seed property: with and without revec, the optimized
     function computes bit-identical memory. *)

open Snslp_ir
open Snslp_interp
open Snslp_vectorizer
open Snslp_costmodel
module Pipeline = Snslp_passes.Pipeline
module Revec = Snslp_passes.Revec
module Dce = Snslp_passes.Dce
module Gen = Snslp_fuzzer.Gen
module Oracle = Snslp_fuzzer.Oracle
module Registry = Snslp_kernels.Registry

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let on_target (tgt : Target.t) revec =
  {
    Config.snslp with
    Config.target = tgt;
    model = Model.for_target tgt;
    revec;
  }

let compile_kernel name =
  match Registry.find name with
  | Some k -> Snslp_frontend.Frontend.compile_one k.Registry.source
  | None -> Alcotest.failf "registry kernel %s missing" name

(* Widest vector type appearing anywhere in the function. *)
let max_lanes (f : Defs.func) =
  Func.fold_instrs (fun acc i -> max acc (Ty.lanes i.Defs.ty)) 1 f

(* --- Mask arithmetic ------------------------------------------------------ *)

let test_concat_mask () =
  check "concat of 2-lane" true (Revec.concat_mask 2 = [| 0; 1; 2; 3 |]);
  check "concat of 4-lane" true (Revec.concat_mask 4 = [| 0; 1; 2; 3; 4; 5; 6; 7 |]);
  List.iter
    (fun l ->
      let m = Revec.concat_mask l in
      check_int (Printf.sprintf "length %d" l) (2 * l) (Array.length m);
      (* The mask is the identity over the concatenation: lane [i] of
         the result reads lane [i mod l] of operand [i / l] — exactly
         the LLVM two-operand shuffle convention for a concat. *)
      Array.iteri
        (fun i x ->
          check_int (Printf.sprintf "l=%d lane %d" l i) i x)
        m)
    [ 2; 4; 8 ]

(* --- Rejuvenation --------------------------------------------------------- *)

(* The Revec paper's scenario: code vectorized for a narrow ISA
   generation, re-widened for a later one without re-running scalar
   SLP.  motiv_leaf_x4 carries 8 adjacent i64 stores, so sse packs
   2-wide; re-vectorizing toward avx512 must reach 8-wide. *)
let rejuvenate ~(narrow : Target.t) ~(wide : Target.t) name =
  let scalar = compile_kernel name in
  let narrow_f =
    (Pipeline.run ~setting:(Some (on_target narrow false)) scalar).Pipeline.func
  in
  let f = Func.clone narrow_f in
  let r = Revec.run ~model:(Model.for_target wide) ~target:wide f in
  ignore (Dce.run f);
  (scalar, narrow_f, f, r)

let test_rejuvenation_widens () =
  let scalar, narrow_f, f, r =
    rejuvenate ~narrow:Target.sse ~wide:Target.avx512 "motiv_leaf_x4"
  in
  check "sse compile is 2-wide" true (max_lanes narrow_f = 2);
  check "pairs committed" true (r.Revec.pairs > 0);
  check "wide instrs emitted" true (r.Revec.widened > r.Revec.pairs);
  (* 2 -> 4 -> 8 takes two productive rounds. *)
  check "rounds compose" true (r.Revec.rounds >= 2);
  check_int "reaches full avx512 width" 8 (max_lanes f);
  (match Verifier.check f with
  | Ok () -> ()
  | Error report -> Alcotest.failf "re-widened IR invalid: %s" report);
  (* Semantics: the re-widened function must compute exactly what the
     scalar original computes (widening is elementwise — no float
     reassociation — so the comparison is bit-exact). *)
  check "matches the scalar original" true
    (Memory.equal (Oracle.run_memory scalar) (Oracle.run_memory f));
  check "matches the narrow compile" true
    (Memory.equal (Oracle.run_memory narrow_f) (Oracle.run_memory f))

(* One hop only: sse 2-lane bundles toward avx2 stop at 4 lanes. *)
let test_rejuvenation_stops_at_register_width () =
  let _, _, f, r = rejuvenate ~narrow:Target.sse ~wide:Target.avx2 "motiv_leaf_x4" in
  check "pairs committed" true (r.Revec.pairs > 0);
  check_int "stops at the avx2 width" 4 (max_lanes f)

(* Re-widening toward the target the code was compiled for is a
   no-op: the bundles already fill the register. *)
let test_rejuvenation_same_target_noop () =
  let _, narrow_f, f, r = rejuvenate ~narrow:Target.sse ~wide:Target.sse "motiv_leaf_x4" in
  check_int "no pairs" 0 r.Revec.pairs;
  check_int "no wide instrs" 0 r.Revec.widened;
  check "IR untouched" true
    (String.equal (Printer.func_to_string narrow_f) (Printer.func_to_string f))

(* --- Pipeline integration ------------------------------------------------- *)

(* The narrow IR fed back through the full pipeline at the wide
   target: scalar SLP finds no seeds (the stores are already vector),
   revec does the re-widening, DCE sweeps the strands, and the
   translation validator checks every step.  The stats counters must
   surface the revec activity. *)
let test_pipeline_rejuvenation_validates () =
  let scalar = compile_kernel "motiv_leaf_x4" in
  let narrow_f =
    (Pipeline.run ~setting:(Some (on_target Target.sse false)) scalar).Pipeline.func
  in
  let result =
    Pipeline.run ~setting:(Some (on_target Target.avx512 true)) ~validate:true narrow_f
  in
  let rep =
    match result.Pipeline.vect_report with
    | Some rep -> rep
    | None -> Alcotest.fail "no vectorizer report"
  in
  check "stats count pairs" true (rep.Vectorize.stats.Stats.revec_pairs > 0);
  check "stats count widened" true
    (rep.Vectorize.stats.Stats.revec_widened > rep.Vectorize.stats.Stats.revec_pairs);
  check_int "output is 8-wide" 8 (max_lanes result.Pipeline.func);
  (match result.Pipeline.validation with
  | None -> Alcotest.fail "no validation record"
  | Some v ->
      List.iter
        (fun (pass, verdict) ->
          match verdict with
          | Snslp_lint.Validate.Mismatch { where; detail } ->
              Alcotest.failf "pass %s: mismatch @%s: %s" pass where detail
          | Snslp_lint.Validate.Valid | Snslp_lint.Validate.Unknown _ -> ())
        v.Pipeline.pass_verdicts;
      (match v.Pipeline.end_verdict with
      | Snslp_lint.Validate.Mismatch { where; detail } ->
          Alcotest.failf "end-to-end mismatch @%s: %s" where detail
      | Snslp_lint.Validate.Valid | Snslp_lint.Validate.Unknown _ -> ());
      List.iter (fun msg -> Alcotest.failf "graph invariant: %s" msg) v.Pipeline.graph_findings);
  check "memory matches the scalar original" true
    (Memory.equal (Oracle.run_memory scalar) (Oracle.run_memory result.Pipeline.func))

(* The store to [a[i+2]] between the two narrow load pairs pins their
   wide load to the first pair (At_first), but it reads the second
   pair's address, defined below that store.  Placed through codegen's
   scheduler, the address moves up with it: the sse compile
   rejuvenates at avx512, verifies and computes what the scalar source
   computes. *)
let test_rejuvenation_at_first_load () =
  let scalar =
    Snslp_frontend.Frontend.compile_one
      "kernel r(double a[], double b[], long i) { double x2 = a[i+2]; double x3 = a[i+3]; \
       a[i+2] = 5.0; double x0 = a[i+0]; double x1 = a[i+1]; b[i+0] = x0 * 2.0; b[i+1] = \
       x1 * 2.0; b[i+2] = x2 * 2.0; b[i+3] = x3 * 2.0; }"
  in
  let narrow_f =
    (Pipeline.run ~setting:(Some (on_target Target.sse false)) scalar).Pipeline.func
  in
  check_int "sse compile is 2-wide" 2 (max_lanes narrow_f);
  let result = Pipeline.run ~setting:(Some (on_target Target.avx512 true)) narrow_f in
  (match Verifier.check result.Pipeline.func with
  | Ok () -> ()
  | Error report -> Alcotest.failf "rejuvenated IR invalid: %s" report);
  (match result.Pipeline.vect_report with
  | Some rep -> check_int "the pair commits" 1 rep.Vectorize.stats.Stats.revec_pairs
  | None -> Alcotest.fail "no vectorizer report");
  check_int "output is 4-wide" 4 (max_lanes result.Pipeline.func);
  check "memory matches the scalar source" true
    (Memory.equal (Oracle.run_memory scalar) (Oracle.run_memory result.Pipeline.func))

(* Revec off: the counters stay zero. *)
let test_counters_zero_without_revec () =
  let scalar = compile_kernel "motiv_leaf_x4" in
  match
    (Pipeline.run ~setting:(Some (on_target Target.avx512 false)) scalar).Pipeline.vect_report
  with
  | Some rep ->
      check_int "no pairs" 0 rep.Vectorize.stats.Stats.revec_pairs;
      check_int "no widened" 0 rep.Vectorize.stats.Stats.revec_widened
  | None -> Alcotest.fail "no vectorizer report"

(* --- Property: revec preserves semantics ---------------------------------- *)

(* Per random seed, the avx512 pipeline with and without revec must
   compute bit-identical memory.  Revec widens elementwise (lanes
   keep their operations, concatenation never reorders arithmetic),
   so no float tolerance is needed — [Memory.equal] is exact. *)
let prop_revec_preserves =
  QCheck.Test.make ~count:500 ~name:"revec preserves semantics (500 random seeds)"
    QCheck.(make Gen.(int_bound 10_000_000))
    (fun seed ->
      let func = Snslp_fuzzer.Gen.generate ~seed () in
      let opt revec =
        (Pipeline.run ~setting:(Some (on_target Target.avx512 revec)) func).Pipeline.func
      in
      let with_revec = opt true in
      (match Verifier.check with_revec with
      | Ok () -> ()
      | Error report ->
          QCheck.Test.fail_reportf "seed %d: revec output invalid: %s" seed report);
      Memory.equal (Oracle.run_memory (opt false)) (Oracle.run_memory with_revec))

let suite =
  [
    ( "revec",
      [
        Alcotest.test_case "concat mask arithmetic" `Quick test_concat_mask;
        Alcotest.test_case "rejuvenation sse -> avx512" `Quick test_rejuvenation_widens;
        Alcotest.test_case "rejuvenation stops at register width" `Quick
          test_rejuvenation_stops_at_register_width;
        Alcotest.test_case "same-target rejuvenation is a no-op" `Quick
          test_rejuvenation_same_target_noop;
        Alcotest.test_case "pipeline rejuvenation validates" `Quick
          test_pipeline_rejuvenation_validates;
        Alcotest.test_case "rejuvenation places an At_first load" `Quick
          test_rejuvenation_at_first_load;
        Alcotest.test_case "counters zero without revec" `Quick
          test_counters_zero_without_revec;
        QCheck_alcotest.to_alcotest prop_revec_preserves;
      ] );
  ]
