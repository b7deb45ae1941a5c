(* Tests for horizontal reduction vectorization. *)

open Snslp_ir
open Snslp_vectorizer
open Snslp_passes

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let reductions_done setting src =
  let func = Snslp_frontend.Frontend.compile_one src in
  match (Pipeline.run ~setting:(Some setting) func).Pipeline.vect_report with
  | Some rep -> rep.Vectorize.stats.Stats.reductions
  | None -> 0

let pure_add_src =
  {|
kernel dot(double s[], double a[], long i) {
  s[3*i] = a[8*i+0] + a[8*i+1] + a[8*i+2] + a[8*i+3]
         + a[8*i+4] + a[8*i+5] + a[8*i+6] + a[8*i+7];
}
|}

let mixed_src =
  {|
kernel bal(double s[], double a[], double b[], long i) {
  s[3*i] = a[4*i+0] + a[4*i+1] + a[4*i+2] + a[4*i+3]
         - b[4*i+0] - b[4*i+1] - b[4*i+2] - b[4*i+3];
}
|}

let test_pure_add_all_modes () =
  check_int "slp reduces" 1 (reductions_done Config.vanilla pure_add_src);
  check_int "lslp reduces" 1 (reductions_done Config.lslp pure_add_src);
  check_int "sn-slp reduces" 1 (reductions_done Config.snslp pure_add_src)

let test_mixed_needs_supernode () =
  check_int "slp cannot" 0 (reductions_done Config.vanilla mixed_src);
  check_int "lslp cannot" 0 (reductions_done Config.lslp mixed_src);
  check_int "sn-slp reduces" 1 (reductions_done Config.snslp mixed_src)

let test_too_short_chain_skipped () =
  (* Below 2*width leaves a reduction cannot pay for the horizontal
     sum. *)
  let src =
    "kernel short(double s[], double a[], long i) { s[3*i] = a[4*i+0] + a[4*i+1] + a[4*i+2]; }"
  in
  check_int "short chain skipped" 0 (reductions_done Config.snslp src)

let test_non_consecutive_loads_skipped () =
  let src =
    {|
kernel gaps(double s[], double a[], long i) {
  s[3*i] = a[8*i+0] + a[8*i+2] + a[8*i+4] + a[8*i+6]
         + a[8*i+9] + a[8*i+11] + a[8*i+13] + a[8*i+15];
}
|}
  in
  check_int "strided loads skipped" 0 (reductions_done Config.snslp src)

let test_intervening_store_blocks () =
  (* A store to the summed region between the loads and the reduction
     root makes hoisting the vector load illegal. *)
  let src =
    {|
kernel blocked(double s[], double a[], long i) {
  double t0 = a[8*i+0] + a[8*i+1] + a[8*i+2] + a[8*i+3];
  a[8*i+1] = 0.0;
  s[3*i] = t0 + a[8*i+4] + a[8*i+5] + a[8*i+6] + a[8*i+7];
}
|}
  in
  (* The t0 subchain is multi-use... make the check about semantics:
     whatever is rewritten must preserve behaviour (covered below);
     here just require the full 8-load reduction did not fire. *)
  check "at most a partial reduction" true (reductions_done Config.snslp src <= 1)

(* One 8-load sum whose first four loads feed [t0], then a store to
   [dst[8*i+1]] before the chain root.  Into [a] the store overwrites
   a grouped load's cell, which the vector load would read at the
   root: no reduction.  Into [b] it touches none: one reduction. *)
let store_before_root_src dst =
  Printf.sprintf
    {|
kernel r(double s[], double a[], double b[], long i) {
  double t0 = a[8*i+0] + a[8*i+1] + a[8*i+2] + a[8*i+3];
  %s[8*i+1] = 0.0;
  s[3*i] = t0 + a[8*i+4] + a[8*i+5] + a[8*i+6] + a[8*i+7];
}
|}
    dst

let test_store_before_root_exact () =
  check_int "store overlapping a grouped load" 0
    (reductions_done Config.snslp (store_before_root_src "a"));
  check_int "store into another array" 1
    (reductions_done Config.snslp (store_before_root_src "b"));
  List.iter
    (fun dst ->
      let wl =
        Snslp_kernels.Workload.prepare
          {
            Snslp_kernels.Registry.name = "r";
            provenance = "";
            description = "";
            source = store_before_root_src dst;
            istride = 1;
            extent = 8;
            default_iters = 32;
          }
      in
      let func = wl.Snslp_kernels.Workload.func in
      let out = (Pipeline.run ~setting:(Some Config.snslp) func).Pipeline.func in
      Alcotest.(check string)
        (Printf.sprintf "store into %s: validator" dst)
        "valid"
        (Snslp_lint.Validate.verdict_to_string (Snslp_lint.Validate.compare_funcs func out));
      check
        (Printf.sprintf "store into %s: interpreter" dst)
        true
        (Snslp_interp.Memory.equal
           (Snslp_kernels.Workload.run_interp wl func)
           (Snslp_kernels.Workload.run_interp wl out)))
    [ "a"; "b" ]

let test_reduction_semantics () =
  List.iter
    (fun src ->
      let reg =
        {
          Snslp_kernels.Registry.name = "r";
          provenance = "";
          description = "";
          source = src;
          istride = 1;
          extent = 8;
          default_iters = 32;
        }
      in
      let wl = Snslp_kernels.Workload.prepare reg in
      let reference = Snslp_kernels.Workload.run_interp wl wl.Snslp_kernels.Workload.func in
      List.iter
        (fun setting ->
          let result = Pipeline.run ~setting:(Some setting) wl.Snslp_kernels.Workload.func in
          let got = Snslp_kernels.Workload.run_interp wl result.Pipeline.func in
          check "reduction preserves semantics" true
            (Snslp_interp.Memory.equal reference got))
        [ Config.vanilla; Config.lslp; Config.snslp ])
    [ pure_add_src; mixed_src ]

let test_reduction_emits_vector_loads () =
  let func = Snslp_frontend.Frontend.compile_one pure_add_src in
  let result = Pipeline.run ~setting:(Some Config.snslp) func in
  let out = result.Pipeline.func in
  let vloads =
    Func.fold_instrs
      (fun n j -> if Instr.is_load j && Ty.is_vector j.Defs.ty then n + 1 else n)
      0 out
  in
  let scalar_loads =
    Func.fold_instrs
      (fun n j -> if Instr.is_load j && not (Ty.is_vector j.Defs.ty) then n + 1 else n)
      0 out
  in
  check_int "four vector loads" 4 vloads;
  check_int "no scalar loads remain" 0 scalar_loads;
  Verifier.verify_exn out

let test_mixed_reduction_signs () =
  (* The mixed reduction must contain a vector subtract for the minus
     run. *)
  let func = Snslp_frontend.Frontend.compile_one mixed_src in
  let result = Pipeline.run ~setting:(Some Config.snslp) func in
  let vsubs =
    Func.fold_instrs
      (fun n j ->
        if Instr.binop_kind j = Some Defs.Sub && Ty.is_vector j.Defs.ty then n + 1 else n)
      0 result.Pipeline.func
  in
  check "vector subtract present" true (vsubs >= 1)

(* Same-sign runs from two address classes, reduced from a generated
   kernel whose two runs accumulated in string-hash order.  The leaves
   meet [a] before [c]; classes accumulate in reverse order of first
   appearance, so [c]'s run is loaded first.  Every mode computes what
   the O3 compile computes, and the validator finds no mismatch. *)
let two_class_src =
  {|
kernel r(double s[], double a[], double c[], long i) {
  s[i] = a[i+2] + c[i+2] + a[i+1] + c[i+3];
}
|}

let test_two_class_run_order () =
  let wl =
    Snslp_kernels.Workload.prepare
      {
        Snslp_kernels.Registry.name = "r";
        provenance = "";
        description = "";
        source = two_class_src;
        istride = 1;
        extent = 8;
        default_iters = 32;
      }
  in
  let func = wl.Snslp_kernels.Workload.func in
  let o3 = (Pipeline.run ~setting:None func).Pipeline.func in
  let vector_load_bases (f : Defs.func) =
    Func.fold_instrs
      (fun acc (j : Defs.instr) ->
        match Snslp_analysis.Address.of_instr j with
        | Some a when Instr.is_load j && Ty.is_vector j.Defs.ty ->
            Value.name a.Snslp_analysis.Address.base :: acc
        | _ -> acc)
      [] f
    |> List.rev
  in
  List.iter
    (fun setting ->
      let result = Pipeline.run ~setting:(Some setting) func in
      let out = result.Pipeline.func in
      let name = Pipeline.setting_name (Some setting) in
      check_int (name ^ ": one reduction") 1
        (match result.Pipeline.vect_report with
        | Some rep -> rep.Vectorize.stats.Stats.reductions
        | None -> 0);
      Alcotest.(check (list string)) (name ^ ": c's run first") [ "%c"; "%a" ] (vector_load_bases out);
      check (name ^ ": interpreter equals O3") true
        (Snslp_interp.Memory.equal
           (Snslp_kernels.Workload.run_interp wl o3)
           (Snslp_kernels.Workload.run_interp wl out));
      match Snslp_lint.Validate.compare_funcs func out with
      | Snslp_lint.Validate.Mismatch { where; detail } ->
          Alcotest.failf "%s: validator mismatch at %s: %s" name where detail
      | Snslp_lint.Validate.Valid | Snslp_lint.Validate.Unknown _ -> ())
    [ Config.vanilla; Config.lslp; Config.snslp ]

(* [n] statements, each storing a sum of 8 consecutive loads. *)
let sums n =
  let b = Buffer.create (n * 128) in
  Buffer.add_string b "kernel sums(double s[], double a[], long i) {\n";
  for k = 0 to n - 1 do
    Printf.bprintf b "  s[i+%d] = %s;\n" k
      (String.concat " + " (List.init 8 (fun l -> Printf.sprintf "a[i+%d]" ((8 * k) + l))))
  done;
  Buffer.add_string b "}\n";
  Buffer.contents b

(* A deterministic growth check: the words one [Reduction.run]
   allocates on 250 and 500 such statements, after the scalar passes,
   may grow at most 2.2x per doubling.  Verifying the whole function
   after every reduction grew 3.97x here; verifying what each
   reduction touched grows 2.0x. *)
let test_allocation_growth () =
  let words n =
    let f = Snslp_frontend.Frontend.compile_one (sums n) in
    ignore (Fold.run f);
    ignore (Simplify.run f);
    ignore (Cse.run f);
    let before = Gc.minor_words () in
    let reduced = Reduction.run Config.snslp f in
    let words = Gc.minor_words () -. before in
    check_int "every sum is reduced" n reduced;
    Verifier.verify_exn f;
    words
  in
  let ratio = words 500 /. words 250 in
  if ratio > 2.2 then
    Alcotest.failf "allocation grew %.2fx from 250 to 500 statements (limit 2.2x)" ratio

let suite =
  [
    ( "reduction",
      [
        Alcotest.test_case "pure add, all modes" `Quick test_pure_add_all_modes;
        Alcotest.test_case "mixed signs need the Super-Node" `Quick
          test_mixed_needs_supernode;
        Alcotest.test_case "short chains skipped" `Quick test_too_short_chain_skipped;
        Alcotest.test_case "non-consecutive loads skipped" `Quick
          test_non_consecutive_loads_skipped;
        Alcotest.test_case "intervening store blocks" `Quick test_intervening_store_blocks;
        Alcotest.test_case "store before the root, exact" `Quick test_store_before_root_exact;
        Alcotest.test_case "semantics preserved" `Quick test_reduction_semantics;
        Alcotest.test_case "emits vector loads" `Quick test_reduction_emits_vector_loads;
        Alcotest.test_case "mixed signs use vector subtract" `Quick
          test_mixed_reduction_signs;
        Alcotest.test_case "two address classes, one sign" `Quick test_two_class_run_order;
        Alcotest.test_case "allocation growth per doubling" `Quick test_allocation_growth;
      ] );
  ]
