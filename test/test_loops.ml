(* Tests for the loop subsystem: KernelC [for] lowering, natural-loop
   analysis and counted-loop recognition, full/partial unrolling, the
   jam pass, engine parity on back-edge CFGs, the validator's
   follow-through after full unroll, and the verifier's terminator
   hardening. *)

open Snslp_ir
open Snslp_passes
module Loops = Snslp_loops.Loops
module Oracle = Snslp_fuzzer.Oracle
module Interp = Snslp_interp.Interp
module Memory = Snslp_interp.Memory
module Rvalue = Snslp_interp.Rvalue
module Config = Snslp_vectorizer.Config
module Stats = Snslp_vectorizer.Stats

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let compile = Snslp_frontend.Frontend.compile_one

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let count_phis f =
  Func.fold_instrs
    (fun n i -> match i.Defs.op with Defs.Phi _ -> n + 1 | _ -> n)
    0 f

(* --- Sources ------------------------------------------------------------- *)

let saxpy8_src =
  {|
kernel saxpy8(double a[], double b[], double c[], long i) {
  for (long k = 0; k < 8; k = k + 1) {
    c[i + k] = a[i + k] * 2.0 + b[i + k];
  }
}
|}

let saxpy_n_src =
  {|
kernel saxpy_n(double a[], double b[], double c[], long n) {
  for (long k = 0; k < n; k = k + 1) {
    c[k] = a[k] * 2.0 + b[k];
  }
}
|}

let down_src =
  {|
kernel down(double a[], double c[], long i) {
  for (long k = 8; k > 0; k = k - 2) {
    c[k] = a[k] - 1.0;
  }
}
|}

let zero_trip_src =
  {|
kernel zt(double a[], double c[], long i) {
  c[0] = 1.0;
  for (long k = 5; k < 5; k = k + 1) {
    c[k] = a[k];
  }
  c[1] = 2.0;
}
|}

let nested_src =
  {|
kernel nest(double a[], double c[], long i) {
  for (long j = 0; j < 3; j = j + 1) {
    for (long k = 0; k < 4; k = k + 1) {
      c[j * 4 + k] = a[j * 4 + k] + 1.0;
    }
  }
}
|}

let if_in_loop_src =
  {|
kernel cond_loop(double a[], double c[], long i) {
  for (long k = 0; k < 6; k = k + 1) {
    if (k < 3) { c[k] = a[k] * 2.0; } else { c[k] = a[k] + 1.0; }
  }
}
|}

let two_loops_src =
  {|
kernel two(double a[], double c[], long n) {
  for (long k = 0; k < 4; k = k + 1) {
    c[k] = a[k] + 1.0;
  }
  for (long k = 0; k < n; k = k + 1) {
    c[k + 8] = a[k] * 3.0;
  }
}
|}

(* --- Helpers ------------------------------------------------------------- *)

(* Interpret [func] (tree engine) with fresh double buffers for its
   array params and [n] for the trailing integer param. *)
let run_with func ~arrays ~n =
  let memory = Memory.create () in
  List.iteri
    (fun pos _ ->
      Memory.set_float_buffer memory ~arg_pos:pos
        (Array.init 64 (fun k -> float_of_int ((k mod 9) + 1) *. 0.5)))
    arrays;
  let args =
    Array.of_list
      (List.mapi (fun pos _ -> Rvalue.R_ptr { base = pos; offset = 0 }) arrays
      @ [ Rvalue.R_int (Int64.of_int n) ])
  in
  Interp.run func ~args ~memory;
  memory

let the_counted f =
  let forest = Loops.analyze f in
  match forest.Loops.loops with
  | [ l ] -> (
      match Loops.as_counted l with
      | Some c -> c
      | None -> Alcotest.fail "loop not recognized as counted")
  | ls -> Alcotest.failf "expected one loop, found %d" (List.length ls)

(* --- Lowering + analysis ------------------------------------------------- *)

let test_for_lowering_shape () =
  let f = compile saxpy8_src in
  (* preheader (entry), header, body, latch, exit *)
  check_int "five blocks" 5 (List.length (Func.blocks f));
  check_int "one phi" 1 (count_phis f);
  let c = the_counted f in
  check "entry is preheader" true (Block.equal c.Loops.preheader (Func.entry f));
  check_int "trip count 8" 8
    (match Loops.trip_count c with Some n -> n | None -> -1);
  check "step 1" true (Int64.equal c.Loops.step 1L);
  check "monotone" true (Loops.monotone c)

(* Sequential loops may reuse a loop variable; each later phi takes
   a fresh name, so the printed IR defines every name once and parses
   back, also with the loops kept (o3). *)
let test_reused_loop_variable () =
  let f =
    compile
      {|
kernel twice(double a[], double k_1[], long i) {
  for (long k = 0; k < 4; k = k + 1) { a[i + k] = a[i + k] * 2.0; }
  for (long k = 0; k < 4; k = k + 1) { a[i + k] = a[i + k] + 1.0; }
  for (long k = 0; k < 4; k = k + 1) { k_1[i + k] = a[i + k]; }
}
|}
  in
  let phis =
    Func.fold_instrs
      (fun acc i -> match i.Defs.op with Defs.Phi _ -> i.Defs.iname :: acc | _ -> acc)
      [] f
  in
  Alcotest.(check (list string)) "phi names" [ "k"; "k_2"; "k_3" ] (List.rev phis);
  let out = (Pipeline.run ~setting:None f).Pipeline.func in
  check_int "loops kept" 3 (count_phis out);
  let text = Printer.func_to_string out in
  match Ir_parser.parse text with
  | g -> Alcotest.(check string) "print/parse/print" text (Printer.func_to_string g)
  | exception Ir_parser.Parse_error { line; message } ->
      Alcotest.failf "IR parse error at line %d: %s" line message

let test_negative_step () =
  let f = compile down_src in
  let c = the_counted f in
  check "step -2" true (Int64.equal c.Loops.step (-2L));
  check_int "trip count 4" 4
    (match Loops.trip_count c with Some n -> n | None -> -1);
  check "monotone downward" true (Loops.monotone c)

let test_zero_trip_count () =
  let f = compile zero_trip_src in
  let c = the_counted f in
  check_int "trip count 0" 0
    (match Loops.trip_count c with Some n -> n | None -> -1)

let test_symbolic_bound () =
  let f = compile saxpy_n_src in
  let c = the_counted f in
  check "no static trip count" true (Loops.trip_count c = None);
  check "monotone" true (Loops.monotone c)

let test_nonmonotone_ne_never_hits () =
  (* k != 5 stepping by 2 from 0 never hits 5: the simulation runs to
     the cap and reports no trip count, and Ne is not monotone. *)
  let f =
    compile
      {|
kernel ne(double c[], long i) {
  for (long k = 0; k != 5; k = k + 2) {
    c[0] = 1.0;
  }
}
|}
  in
  let c = the_counted f in
  check "cap exceeded" true (Loops.trip_count c = None);
  check "Ne not monotone" true (not (Loops.monotone c))

let test_nested_forest () =
  let f = compile nested_src in
  let forest = Loops.analyze f in
  check_int "two loops" 2 (List.length forest.Loops.loops);
  check_int "one root" 1 (List.length forest.Loops.roots);
  let outer = List.hd forest.Loops.roots in
  check_int "outer depth" 1 outer.Loops.depth;
  (match outer.Loops.children with
  | [ inner ] ->
      check_int "inner depth" 2 inner.Loops.depth;
      check "inner parent" true
        (match inner.Loops.parent with
        | Some p -> Block.equal p.Loops.header outer.Loops.header
        | None -> false);
      check "inner nested in outer" true
        (Loops.mem outer inner.Loops.header);
      (* Only the innermost loop is counted: the outer loop contains
         the inner phi, breaking the one-phi rule. *)
      check "inner counted" true (Loops.as_counted inner <> None);
      check "outer not counted" true (Loops.as_counted outer = None)
  | _ -> Alcotest.fail "outer loop has no single child")

let test_frontend_rejects_array_bound () =
  let bad =
    {|
kernel bad(double a[], double c[], long i) {
  for (long k = 0; k < a[0]; k = k + 1) {
    c[k] = 1.0;
  }
}
|}
  in
  match compile bad with
  | _ -> Alcotest.fail "array-read bound must be rejected"
  | exception Snslp_frontend.Frontend.Error m ->
      check "names the bound" true (contains m "loop bound")

let test_frontend_rejects_float_iv () =
  let bad =
    {|
kernel bad(double c[], long i) {
  for (double k = 0.0; k < 4; k = k + 1) {
    c[0] = 1.0;
  }
}
|}
  in
  match compile bad with
  | _ -> Alcotest.fail "float induction variable must be rejected"
  | exception Snslp_frontend.Frontend.Error m ->
      check "names the variable" true (contains m "integer type")

(* --- Unrolling ----------------------------------------------------------- *)

let test_full_unroll_direct () =
  let f = compile saxpy8_src in
  let g = Func.clone f in
  let r = Unroll.run ~policy:Config.Unroll_auto g in
  check_int "one loop" 1 r.Unroll.loops;
  check_int "one counted" 1 r.Unroll.counted;
  check_int "fully unrolled" 1 r.Unroll.full;
  check_int "no partial" 0 r.Unroll.partial;
  check_int "no phi left" 0 (count_phis g);
  Verifier.verify_exn g;
  let arrays = [ "a"; "b"; "c" ] in
  List.iter
    (fun n ->
      check "full unroll preserves semantics" true
        (Memory.equal (run_with f ~arrays ~n) (run_with g ~arrays ~n)))
    [ 0; 8 ]

let test_partial_unroll_direct () =
  let f = compile saxpy_n_src in
  let arrays = [ "a"; "b"; "c" ] in
  List.iter
    (fun factor ->
      let g = Func.clone f in
      let r = Unroll.run ~policy:(Config.Unroll_by factor) g in
      check_int "partially unrolled" 1 r.Unroll.partial;
      Verifier.verify_exn g;
      (* n below / at / above / off the factor, and zero-trip. *)
      List.iter
        (fun n ->
          if
            not (Memory.equal (run_with f ~arrays ~n) (run_with g ~arrays ~n))
          then
            Alcotest.failf "partial unroll by %d changed semantics at n=%d"
              factor n)
        [ 0; 1; factor - 1; factor; factor + 1; (2 * factor) + 1; 17 ])
    [ 2; 3; 4; 6 ]

let test_zero_trip_unroll () =
  let f = compile zero_trip_src in
  let g = Func.clone f in
  let r = Unroll.run ~policy:Config.Unroll_auto g in
  check_int "zero-trip loop fully unrolled away" 1 r.Unroll.full;
  Verifier.verify_exn g;
  check "surrounding stores survive" true
    (Memory.equal
       (run_with f ~arrays:[ "a"; "c" ] ~n:0)
       (run_with g ~arrays:[ "a"; "c" ] ~n:0))

let test_jam_collapses_unrolled_loop () =
  let f = compile saxpy8_src in
  let g = Func.clone f in
  ignore (Unroll.run ~policy:Config.Unroll_auto g);
  let merged = Unroll_and_jam.run g in
  check "merged several blocks" true (merged > 0);
  check_int "single straight-line block" 1 (List.length (Func.blocks g));
  Verifier.verify_exn g;
  let arrays = [ "a"; "b"; "c" ] in
  check "jam preserves semantics" true
    (Memory.equal (run_with f ~arrays ~n:8) (run_with g ~arrays ~n:8))

let test_jam_keeps_phi_cfg_valid () =
  (* After a partial unroll the copies chain through plain [Br]s while
     the epilogue header still carries a phi: jamming must retarget
     the phi's predecessor payload to the merged block. *)
  let f = compile saxpy_n_src in
  let g = Func.clone f in
  ignore (Unroll.run ~policy:(Config.Unroll_by 4) g);
  let merged = Unroll_and_jam.run g in
  check "merged the unrolled chain" true (merged > 0);
  Verifier.verify_exn g;
  let arrays = [ "a"; "b"; "c" ] in
  List.iter
    (fun n ->
      check "jammed partial unroll preserves semantics" true
        (Memory.equal (run_with f ~arrays ~n) (run_with g ~arrays ~n)))
    [ 0; 3; 4; 9; 16 ]

(* --- Pipeline + validator follow-through --------------------------------- *)

(* The compile's counters record, where the pipeline puts the loop
   counters. *)
let stats_of (r : Pipeline.result) =
  match r.Pipeline.vect_report with
  | Some rep -> rep.Snslp_vectorizer.Vectorize.stats
  | None -> Alcotest.fail "no vectorizer report"

let pass_verdict validation pass =
  match List.assoc_opt pass validation.Pipeline.pass_verdicts with
  | Some v -> v
  | None -> Alcotest.failf "no %s verdict recorded" pass

let test_pipeline_full_unroll_validates () =
  let f = compile saxpy8_src in
  let r = Pipeline.run ~validate:true f in
  let s = stats_of r in
  check_int "loop found" 1 s.Stats.loops_found;
  check_int "loop counted" 1 s.Stats.loops_counted;
  check_int "fully unrolled" 1 s.Stats.loops_unrolled_full;
  check "blocks jammed" true (s.Stats.loop_blocks_jammed > 0);
  check_int "no phi in output" 0 (count_phis r.Pipeline.func);
  (* Satellite: after a full unroll no loop-carried phi remains, so
     the validator must return real verdicts downstream — [Valid], not
     the loop [Unknown] fallback — in particular for the slp pass. *)
  (match r.Pipeline.validation with
  | Some v ->
      (match pass_verdict v "slp" with
      | Snslp_lint.Validate.Valid -> ()
      | verdict ->
          Alcotest.failf "slp verdict after full unroll: %s"
            (Snslp_lint.Validate.verdict_to_string verdict));
      List.iter
        (fun (pass, verdict) ->
          match verdict with
          | Snslp_lint.Validate.Mismatch _ ->
              Alcotest.failf "pass %s: validator mismatch" pass
          | Snslp_lint.Validate.Valid | Snslp_lint.Validate.Unknown _ -> ())
        v.Pipeline.pass_verdicts
  | None -> Alcotest.fail "no validation record")

let test_pipeline_partial_unroll_unknown_fallback () =
  let f = compile saxpy_n_src in
  let r = Pipeline.run ~validate:true f in
  check_int "partially unrolled" 1 (stats_of r).Stats.loops_unrolled_partial;
  check "epilogue phi survives" true (count_phis r.Pipeline.func >= 1);
  (* A symbolic-trip loop survives the partial unroll only in the
     relaxed (non-inductive) form — values escape the main loop into
     the epilogue, so the validator stays [Unknown], never
     [Mismatch], and says exactly why. *)
  match r.Pipeline.validation with
  | Some v ->
      (match pass_verdict v "unroll" with
      | Snslp_lint.Validate.Unknown reason ->
          check "reason names the symbolic trip" true (contains reason "symbolic trip")
      | verdict ->
          Alcotest.failf "unroll verdict with residual loop: %s"
            (Snslp_lint.Validate.verdict_to_string verdict));
      List.iter
        (fun (pass, verdict) ->
          match verdict with
          | Snslp_lint.Validate.Mismatch _ ->
              Alcotest.failf "pass %s: validator mismatch" pass
          | Snslp_lint.Validate.Valid | Snslp_lint.Validate.Unknown _ -> ())
        v.Pipeline.pass_verdicts
  | None -> Alcotest.fail "no validation record"

(* The acceptance sweep: every loop-form registry kernel, partially
   unrolled (by 2, by 4) and unroll-and-jammed (auto), validates
   [Valid] end to end — constant trips execute concretely, so the
   digest fallback that used to answer [Unknown] is gone. *)
let test_registry_unroll_policies_validate () =
  List.iter
    (fun ((lk : Snslp_kernels.Registry.t), _) ->
      List.iter
        (fun unroll ->
          let setting = Some { Config.snslp with Config.unroll } in
          let r =
            Pipeline.run ~setting ~validate:true (compile lk.Snslp_kernels.Registry.source)
          in
          match r.Pipeline.validation with
          | None -> Alcotest.failf "%s: no validation record" lk.Snslp_kernels.Registry.name
          | Some v -> (
              match v.Pipeline.end_verdict with
              | Snslp_lint.Validate.Valid -> ()
              | verdict ->
                  Alcotest.failf "%s under %s: %s" lk.Snslp_kernels.Registry.name
                    (match unroll with
                    | Config.No_unroll -> "none"
                    | Config.Unroll_by n -> Printf.sprintf "by %d" n
                    | Config.Unroll_auto -> "auto")
                    (Snslp_lint.Validate.verdict_to_string verdict)))
        [ Config.Unroll_by 2; Config.Unroll_by 4; Config.Unroll_auto ])
    Snslp_kernels.Registry.loop_pairs

let test_pipeline_off_policy_keeps_loop () =
  let f = compile saxpy8_src in
  let setting = Some { Config.default with Config.unroll = Config.No_unroll } in
  let r = Pipeline.run ~setting f in
  let s = stats_of r in
  Alcotest.(check (list int))
    "loop counters all zero when off" [ 0; 0; 0; 0; 0 ]
    [
      s.Stats.loops_found; s.Stats.loops_counted; s.Stats.loops_unrolled_full;
      s.Stats.loops_unrolled_partial; s.Stats.loop_blocks_jammed;
    ];
  check_int "phi survives" 1 (count_phis r.Pipeline.func)

(* --- Differential oracle on loopy kernels -------------------------------- *)

let test_loops_oracle_clean () =
  List.iter
    (fun (name, src) ->
      let f = compile src in
      match Oracle.run_case f with
      | [] -> ()
      | findings ->
          Alcotest.failf "%s: %s" name
            (String.concat "; " (List.map Oracle.finding_to_string findings)))
    [
      ("saxpy8", saxpy8_src);
      ("saxpy_n", saxpy_n_src);
      ("down", down_src);
      ("zero_trip", zero_trip_src);
      ("nested", nested_src);
      ("if_in_loop", if_in_loop_src);
      ("two_loops", two_loops_src);
    ]

(* --- Engine parity on back-edge CFGs ------------------------------------- *)

type outcome = { trap : string option; steps : int; memory : Memory.t }

let run_one engine ?max_steps (func : Defs.func) ~args ~memory : outcome =
  match Interp.exec ~engine ?max_steps func ~args ~memory with
  | steps -> { trap = None; steps; memory }
  | exception e -> { trap = Some (Printexc.to_string e); steps = -1; memory }

let assert_parity ?max_steps name func =
  let a =
    run_one Interp.Tree ?max_steps func ~args:(Oracle.make_args func)
      ~memory:(Oracle.fresh_memory func)
  in
  let b =
    run_one Interp.Compiled ?max_steps func ~args:(Oracle.make_args func)
      ~memory:(Oracle.fresh_memory func)
  in
  (match (a.trap, b.trap) with
  | None, None ->
      if a.steps <> b.steps then
        Alcotest.failf "%s: step counts differ (%d vs %d)" name a.steps b.steps
  | Some x, Some y ->
      if not (String.equal x y) then
        Alcotest.failf "%s: traps differ (%s vs %s)" name x y
  | Some x, None -> Alcotest.failf "%s: only tree trapped (%s)" name x
  | None, Some y -> Alcotest.failf "%s: only compiled trapped (%s)" name y);
  if not (Memory.equal a.memory b.memory) then
    Alcotest.failf "%s: final memories differ" name;
  a

let test_engine_parity_on_loops () =
  List.iter
    (fun (name, src) -> ignore (assert_parity name (compile src)))
    [
      ("saxpy8", saxpy8_src);
      ("saxpy_n", saxpy_n_src);
      ("down", down_src);
      ("zero_trip", zero_trip_src);
      ("nested", nested_src);
      ("two_loops", two_loops_src);
    ]

let test_step_budget_trap_mid_loop () =
  (* A step of 0 is a legal KernelC program that never terminates; the
     recognizer refuses it (step must be non-zero), so it reaches the
     interpreter as a live back-edge loop and must exhaust the step
     budget identically on both engines. *)
  let src =
    {|
kernel spin(double a[], double c[], long i) {
  for (long k = 0; k < 8; k = k + 0) {
    c[k] = a[k] + 1.0;
  }
}
|}
  in
  let f = compile src in
  let forest = Loops.analyze f in
  check_int "loop found" 1 (List.length forest.Loops.loops);
  check "step 0 not counted" true
    (Loops.as_counted (List.hd forest.Loops.loops) = None);
  let o = assert_parity ~max_steps:500 "spin" f in
  match o.trap with
  | Some m -> check "step budget trap" true (contains m "step budget")
  | None -> Alcotest.fail "runaway loop did not trap"

(* --- Verifier hardening -------------------------------------------------- *)

let test_verifier_reachable_unterminated () =
  let f = Func.create ~name:"bad" ~args:[] in
  let entry = Func.add_block f "entry" in
  let b1 = Func.add_block f "b1" in
  Block.set_terminator entry (Defs.Br b1);
  match Verifier.check f with
  | Error m ->
      check "names the problem" true (contains m "unterminated");
      check "names the block" true (contains m "b1")
  | Ok () -> Alcotest.fail "reachable unterminated block must be an error"

let test_verifier_unreachable_unterminated_ok () =
  let f = Func.create ~name:"stray" ~args:[] in
  let entry = Func.add_block f "entry" in
  Block.set_terminator entry Defs.Ret;
  ignore (Func.add_block f "dead");
  match Verifier.check f with
  | Ok () -> ()
  | Error m -> Alcotest.failf "unreachable unterminated flagged: %s" m

let test_verifier_foreign_branch_target () =
  let other = Func.create ~name:"other" ~args:[] in
  let foreign = Func.add_block other "foreign" in
  Block.set_terminator foreign Defs.Ret;
  let f = Func.create ~name:"bad" ~args:[] in
  let entry = Func.add_block f "entry" in
  Block.set_terminator entry (Defs.Br foreign);
  match Verifier.check f with
  | Error m ->
      check "names the check" true (contains m "branch target");
      check "names the target" true (contains m "foreign");
      (* The offending terminator is pretty-printed in the report. *)
      check "prints the terminator" true (contains m "br ")
  | Ok () -> Alcotest.fail "branch to a foreign block must be an error"

(* --- Generated loops: unroll property and campaign ----------------------- *)

(* 500 seeds: on generated loopy functions, unrolling (full or by a
   factor) followed by jamming is semantics-preserving and leaves
   well-formed IR.  Unroll never reassociates, so even float memories
   must match bit for bit. *)
let prop_unroll_preserves_semantics =
  QCheck.Test.make ~count:500 ~name:"unroll preserves semantics on loopy functions"
    QCheck.(make Gen.(int_range 0 1_000_000))
    (fun seed ->
      let f =
        Snslp_fuzzer.Gen.generate ~profile:Snslp_fuzzer.Gen.loopy_profile ~seed ()
      in
      let g = Func.clone f in
      let policy =
        if seed mod 2 = 0 then Config.Unroll_auto else Config.Unroll_by (2 + (seed mod 5))
      in
      ignore (Unroll.run ~policy g);
      ignore (Unroll_and_jam.run g);
      (match Verifier.check g with
      | Ok () -> ()
      | Error m -> QCheck.Test.fail_reportf "unrolled IR malformed: %s" m);
      if not (Memory.equal (Oracle.run_memory f) (Oracle.run_memory g)) then
        QCheck.Test.fail_reportf "unroll changed semantics at seed %d" seed;
      true)

(* The acceptance campaign: 1000 generated loopy cases through every
   pipeline configuration (which all unroll under [Unroll_auto]),
   differentially checked against the scalar -O3 reference that keeps
   its loops. *)
let test_loopy_campaign () =
  let result =
    Snslp_fuzzer.Campaign.run ~profile:Snslp_fuzzer.Gen.loopy_profile ~seed:11
      ~cases:1000 ()
  in
  check_int "cases" 1000 result.Snslp_fuzzer.Campaign.cases;
  if not (Snslp_fuzzer.Campaign.clean result) then
    Alcotest.failf "loopy campaign found %d failing cases"
      (List.length result.Snslp_fuzzer.Campaign.reports)

(* --- Registry loop kernels ------------------------------------------------ *)

(* Each loop-form registry kernel, compiled through the full default
   pipeline (unroll, jam, SN-SLP), must (a) report exactly one full
   unroll with no residual phi and (b) give bit-identical interpreter
   memory to its straight-line twin's pipeline output on the same
   inputs.  Buffers are sized for milc_mat_vec_loop's a[144*i+17]
   reach at the shared index argument. *)
module Registry = Snslp_kernels.Registry
module Workload = Snslp_kernels.Workload

let kernel_index = 8
let kernel_buffer_size = 2048

let kernel_memory func =
  let memory = Memory.create () in
  Array.iter
    (fun (a : Defs.arg) ->
      match a.Defs.arg_ty with
      | Ty.Ptr s when Ty.scalar_is_float s ->
          Memory.set_float_buffer memory ~arg_pos:a.Defs.arg_pos
            (Array.init kernel_buffer_size
               (Workload.float_value ~seed:(a.Defs.arg_pos + 1)))
      | Ty.Ptr _ ->
          Memory.set_int_buffer memory ~arg_pos:a.Defs.arg_pos
            (Array.init kernel_buffer_size
               (Workload.int_value ~seed:(a.Defs.arg_pos + 1)))
      | Ty.Scalar _ | Ty.Vector _ -> ())
    (Func.args func);
  memory

let kernel_args func =
  Array.map
    (fun (a : Defs.arg) ->
      match a.Defs.arg_ty with
      | Ty.Ptr _ -> Rvalue.R_ptr { base = a.Defs.arg_pos; offset = 0 }
      | Ty.Scalar s when Ty.scalar_is_int s ->
          Rvalue.R_int (Int64.of_int kernel_index)
      | Ty.Scalar _ -> Rvalue.R_float 1.5
      | Ty.Vector _ -> Rvalue.R_undef)
    (Func.args func)

let run_kernel func =
  let memory = kernel_memory func in
  Interp.run func ~args:(kernel_args func) ~memory;
  memory

let test_registry_loop_twins () =
  List.iter
    (fun ((lk : Registry.t), (tw : Registry.t)) ->
      let lr = Pipeline.run (compile lk.Registry.source) in
      let tr = Pipeline.run (compile tw.Registry.source) in
      check_int (lk.Registry.name ^ " fully unrolled") 1
        (stats_of lr).Stats.loops_unrolled_full;
      check (lk.Registry.name ^ " no residual phi") true
        (count_phis lr.Pipeline.func = 0);
      check
        (lk.Registry.name ^ " matches " ^ tw.Registry.name)
        true
        (Memory.equal (run_kernel lr.Pipeline.func) (run_kernel tr.Pipeline.func)))
    Registry.loop_pairs

(* --- Golden recognizer facts ---------------------------------------------- *)

(* Hand-written loops, one per recognizer rule: each of the first
   fourteen fails one shape check, each of the last five passes them
   all but misses one requirement of the strict form.  The registry,
   Fullbench and generated corpora below hold no rejected loop, and
   all their relaxed loops come from partial unrolling. *)
let irregular_loops =
  [
    (* two back edges *)
    {|func @latches(f64* %a, i64 %n) {
entry:
  br %h
h:
  %k = phi.entry.l1.l2 i64 0, %x, %y
  %c = icmp.lt i32 %k, %n
  br %c, %b, %e
b:
  %d = icmp.lt i32 %k, 3
  br %d, %l1, %l2
l1:
  %x = add i64 %k, 1
  br %h
l2:
  %y = add i64 %k, 2
  br %h
e:
  ret
}|};
    (* the header is its own latch *)
    {|func @selfloop(f64* %a, i64 %n) {
entry:
  br %h
h:
  %k = phi.entry.h i64 0, %x
  %x = add i64 %k, 1
  %c = icmp.lt i32 %x, %n
  br %c, %h, %e
e:
  ret
}|};
    (* two predecessors outside the loop *)
    {|func @twoentries(f64* %a, i64 %n) {
entry:
  %z = icmp.lt i32 %n, 4
  br %z, %p, %h
p:
  br %h
h:
  %k = phi.entry.p.l i64 0, 1, %x
  %c = icmp.lt i32 %k, %n
  br %c, %l, %e
l:
  %x = add i64 %k, 1
  br %h
e:
  ret
}|};
    (* a header without a leading phi: the iv lives in memory *)
    {|func @nophi(i64* %a, i64 %n) {
entry:
  br %h
h:
  %g = gep i64* %a, 0
  %k = load i64 %g
  %c = icmp.lt i32 %k, %n
  br %c, %l, %e
l:
  %x = add i64 %k, 1
  store %x, %g
  br %h
e:
  ret
}|};
    (* a third instruction in the header *)
    {|func @longheader(f64* %a, i64 %n) {
entry:
  br %h
h:
  %k = phi.entry.l i64 0, %x
  %m = add i64 %k, 2
  %c = icmp.lt i32 %m, %n
  br %c, %l, %e
l:
  %x = add i64 %k, 1
  br %h
e:
  ret
}|};
    (* a float compare in the header *)
    {|func @fcmphead(f64* %a, f64 %n) {
entry:
  br %h
h:
  %k = phi.entry.l f64 0.0, %x
  %c = fcmp.lt i32 %k, %n
  br %c, %l, %e
l:
  %x = fadd f64 %k, 1.0
  br %h
e:
  ret
}|};
    (* the compare's left-hand side is the bound *)
    {|func @swapped(f64* %a, i64 %n) {
entry:
  br %h
h:
  %k = phi.entry.l i64 0, %x
  %c = icmp.gt i32 %n, %k
  br %c, %l, %e
l:
  %x = add i64 %k, 1
  br %h
e:
  ret
}|};
    (* the bound varies with the loop *)
    {|func @variant(f64* %a, i64 %n) {
entry:
  br %h
h:
  %k = phi.entry.l i64 0, %x
  %c = icmp.lt i32 %k, %k
  br %c, %l, %e
l:
  %x = add i64 %k, 1
  br %h
e:
  ret
}|};
    (* the taken edge leaves the loop *)
    {|func @inverted(f64* %a, i64 %n) {
entry:
  br %h
h:
  %k = phi.entry.l i64 0, %x
  %c = icmp.ge i32 %k, %n
  br %c, %e, %l
l:
  %x = add i64 %k, 1
  br %h
e:
  ret
}|};
    (* bottom-tested: the latch decides *)
    {|func @bottom(f64* %a, i64 %n) {
entry:
  br %h
h:
  %k = phi.entry.l i64 0, %x
  %c = icmp.lt i32 %k, %n
  br %l
l:
  %x = add i64 %k, 1
  br %c, %h, %e
e:
  ret
}|};
    (* a second exit from the body *)
    {|func @twoexits(f64* %a, i64 %n) {
entry:
  br %h
h:
  %k = phi.entry.l i64 0, %x
  %c = icmp.lt i32 %k, %n
  br %c, %b, %e
b:
  %d = icmp.lt i32 %k, 4
  br %d, %l, %e2
l:
  %x = add i64 %k, 1
  br %h
e:
  ret
e2:
  ret
}|};
    (* a constant on the back edge *)
    {|func @constnext(f64* %a, i64 %n) {
entry:
  br %h
h:
  %k = phi.entry.l i64 0, 5
  %c = icmp.lt i32 %k, %n
  br %c, %l, %e
l:
  br %h
e:
  ret
}|};
    (* the iv doubles *)
    {|func @doubling(f64* %a, i64 %n) {
entry:
  br %h
h:
  %k = phi.entry.l i64 1, %x
  %c = icmp.lt i32 %k, %n
  br %c, %l, %e
l:
  %x = mul i64 %k, 2
  br %h
e:
  ret
}|};
    (* a zero step *)
    {|func @still(f64* %a, i64 %n) {
entry:
  br %h
h:
  %k = phi.entry.l i64 0, %x
  %c = icmp.lt i32 %k, %n
  br %c, %l, %e
l:
  %x = add i64 %k, 0
  br %h
e:
  ret
}|};
    (* relaxed: the preheader branches conditionally *)
    {|func @condpre(f64* %a, i64 %n) {
entry:
  %z = icmp.lt i32 %n, 4
  br %z, %h, %e
h:
  %k = phi.entry.l i64 0, %x
  %c = icmp.lt i32 %k, %n
  br %c, %l, %e
l:
  %x = add i64 %k, 1
  br %h
e:
  ret
}|};
    (* relaxed: the compare has a second user *)
    {|func @cmpused(i64* %a, i64 %n) {
entry:
  br %h
h:
  %k = phi.entry.l i64 0, %x
  %c = icmp.lt i32 %k, %n
  br %c, %l, %e
l:
  %g = gep i64* %a, %k
  %s = select i64 %c, %k, 0
  store %s, %g
  %x = add i64 %k, 1
  br %h
e:
  ret
}|};
    (* relaxed: the iv escapes into the exit *)
    {|func @escapes(i64* %a, i64 %n) {
entry:
  br %h
h:
  %k = phi.entry.l i64 0, %x
  %c = icmp.lt i32 %k, %n
  br %c, %l, %e
l:
  %x = add i64 %k, 1
  br %h
e:
  %g = gep i64* %a, 0
  store %k, %g
  ret
}|};
    (* relaxed: a second phi in the body (the stores of t may overlap, so
       if-conversion leaves the triangle alone) *)
    {|func @twophis(i64* %a, i64 %n) {
entry:
  br %h
h:
  %k = phi.entry.l i64 0, %x
  %c = icmp.lt i32 %k, %n
  br %c, %b, %e
b:
  %d = icmp.lt i32 %k, 2
  br %d, %t, %l
t:
  %g1 = gep i64* %a, %k
  store %k, %g1
  %g2 = gep i64* %a, %n
  store %k, %g2
  br %l
l:
  %p = phi.b.t i64 1, 2
  %g = gep i64* %a, %k
  store %p, %g
  %x = add i64 %k, 1
  br %h
e:
  ret
}|};
    (* relaxed: the increment is a chain of constant adds *)
    {|func @chained(f64* %a, i64 %n) {
entry:
  br %h
h:
  %k = phi.entry.l i64 0, %y
  %c = icmp.lt i32 %k, %n
  br %c, %l, %e
l:
  %x = add i64 %k, 1
  %y = sub i64 %x, 3
  br %h
e:
  ret
}|};
  ]

let loop_line (l : Loops.loop) =
  let h = l.Loops.header.Defs.bname in
  match Loops.recognize l with
  | Error reason -> Printf.sprintf "%s: Error %s" h reason
  | Ok (c, strict) ->
      Printf.sprintf "%s: Ok %s iv=%s init=%s bound=%s step=%Ld cmp=%s pre=%s latch=%s body=%s exit=%s"
        h (if strict then "strict" else "relaxed") c.Loops.iv.Defs.iname (Value.name c.Loops.init)
        (Value.name c.Loops.bound) c.Loops.step (Defs.cmp_to_string c.Loops.cmp)
        c.Loops.preheader.Defs.bname c.Loops.latch.Defs.bname c.Loops.body_entry.Defs.bname
        c.Loops.exit.Defs.bname

(* One line per loop — the recognizer's verdict with every field of a
   counted loop, or its rejection reason — over the registry,
   Fullbench, 300 generated loopy functions and the loops above, each
   at frontend output and after unroll by 2, if-conversion and jam.
   The value was captured before the strict and relaxed recognizers
   became one. *)
let golden_recognizer_md5 = "6fb62c12fb867aa6e29b6a4097faa074"

let test_golden_recognizer () =
  let funcs =
    List.map (fun (k : Registry.t) -> compile k.Registry.source) Registry.all
    @ List.map (fun u -> compile (Snslp_kernels.Fullbench.source u)) Snslp_kernels.Fullbench.all
    @ List.init 300 (fun seed ->
          Snslp_fuzzer.Gen.generate ~profile:Snslp_fuzzer.Gen.loopy_profile ~seed ())
    @ List.map Ir_parser.parse irregular_loops
  in
  let buf = Buffer.create (1 lsl 16) in
  let record (f : Defs.func) =
    Buffer.add_string buf f.Defs.fname;
    Buffer.add_char buf '\n';
    List.iter
      (fun l ->
        Buffer.add_string buf (loop_line l);
        Buffer.add_char buf '\n')
      (Loops.analyze f).Loops.loops
  in
  List.iter
    (fun f ->
      record f;
      ignore (Unroll.run ~policy:(Config.Unroll_by 2) f);
      ignore (Ifconv.run f);
      ignore (Unroll_and_jam.run f);
      record f)
    funcs;
  Alcotest.(check string) "recognizer lines" golden_recognizer_md5
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* --- Config fingerprint isolation ---------------------------------------- *)

let test_fingerprint_isolates_unroll () =
  let fp u = Config.fingerprint { Config.default with Config.unroll = u } in
  let a = fp Config.No_unroll in
  let b = fp (Config.Unroll_by 4) in
  let c = fp Config.Unroll_auto in
  check "none vs factor" true (a <> b);
  check "none vs auto" true (a <> c);
  check "factor vs auto" true (b <> c);
  check "factors distinct" true (fp (Config.Unroll_by 2) <> b)

let suite =
  [
    ( "loops",
      [
        Alcotest.test_case "for lowering shape" `Quick test_for_lowering_shape;
        Alcotest.test_case "reused loop variable" `Quick test_reused_loop_variable;
        Alcotest.test_case "negative step" `Quick test_negative_step;
        Alcotest.test_case "zero trip count" `Quick test_zero_trip_count;
        Alcotest.test_case "symbolic bound" `Quick test_symbolic_bound;
        Alcotest.test_case "ne never hits" `Quick test_nonmonotone_ne_never_hits;
        Alcotest.test_case "nested forest" `Quick test_nested_forest;
        Alcotest.test_case "rejects array bound" `Quick
          test_frontend_rejects_array_bound;
        Alcotest.test_case "rejects float iv" `Quick test_frontend_rejects_float_iv;
        Alcotest.test_case "full unroll direct" `Quick test_full_unroll_direct;
        Alcotest.test_case "partial unroll direct" `Quick test_partial_unroll_direct;
        Alcotest.test_case "zero-trip unroll" `Quick test_zero_trip_unroll;
        Alcotest.test_case "jam collapses unrolled loop" `Quick
          test_jam_collapses_unrolled_loop;
        Alcotest.test_case "jam keeps phi cfg valid" `Quick
          test_jam_keeps_phi_cfg_valid;
        Alcotest.test_case "pipeline full unroll validates" `Quick
          test_pipeline_full_unroll_validates;
        Alcotest.test_case "pipeline partial unroll unknown" `Quick
          test_pipeline_partial_unroll_unknown_fallback;
        Alcotest.test_case "registry unroll policies validate" `Quick
          test_registry_unroll_policies_validate;
        Alcotest.test_case "pipeline off policy keeps loop" `Quick
          test_pipeline_off_policy_keeps_loop;
        Alcotest.test_case "oracle clean on loopy kernels" `Quick
          test_loops_oracle_clean;
        Alcotest.test_case "engine parity on loops" `Quick
          test_engine_parity_on_loops;
        Alcotest.test_case "step budget trap mid-loop" `Quick
          test_step_budget_trap_mid_loop;
        Alcotest.test_case "verifier reachable unterminated" `Quick
          test_verifier_reachable_unterminated;
        Alcotest.test_case "verifier unreachable untermined ok" `Quick
          test_verifier_unreachable_unterminated_ok;
        Alcotest.test_case "verifier foreign branch target" `Quick
          test_verifier_foreign_branch_target;
        Alcotest.test_case "registry loop twins" `Quick test_registry_loop_twins;
        Alcotest.test_case "fingerprint isolates unroll" `Quick
          test_fingerprint_isolates_unroll;
        Alcotest.test_case "golden recognizer facts" `Quick test_golden_recognizer;
        QCheck_alcotest.to_alcotest prop_unroll_preserves_semantics;
        Alcotest.test_case "loopy campaign (1000 cases)" `Slow test_loopy_campaign;
      ] );
  ]
