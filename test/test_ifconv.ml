(* Tests for the if-conversion pass. *)

open Snslp_ir
open Snslp_passes

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let compile = Snslp_frontend.Frontend.compile_one

let run_both src =
  let f = compile src in
  let g = Func.clone f in
  let n = Ifconv.run g in
  (f, g, n)

(* Interpret under a given i and compare final memories. *)
let agree src ~arrays ~size ~ivals =
  let f, g, _ = run_both src in
  List.iter
    (fun iv ->
      let mem_of func =
        let memory = Snslp_interp.Memory.create () in
        List.iteri
          (fun pos _ ->
            Snslp_interp.Memory.set_float_buffer memory ~arg_pos:pos
              (Array.init size (fun k -> float_of_int ((k mod 7) + 1) *. 0.25)))
          arrays;
        let args =
          Array.of_list
            (List.mapi (fun pos _ -> Snslp_interp.Rvalue.R_ptr { base = pos; offset = 0 }) arrays
            @ [ Snslp_interp.Rvalue.R_int (Int64.of_int iv) ])
        in
        Snslp_interp.Interp.run func ~args ~memory;
        memory
      in
      if not (Snslp_interp.Memory.equal (mem_of f) (mem_of g)) then
        Alcotest.failf "if-conversion changed semantics at i=%d" iv)
    ivals

let diamond_src =
  {|
kernel d(double A[], double B[], long i) {
  if (i < 4) { A[i] = B[i] * 2.0; } else { A[i] = B[i] + 1.0; }
}
|}

let test_diamond_becomes_select () =
  let _, g, n = run_both diamond_src in
  check_int "one diamond converted" 1 n;
  check_int "single block" 1 (List.length (Func.blocks g));
  let selects =
    Func.fold_instrs
      (fun n j -> (match j.Defs.op with Defs.Select -> n + 1 | _ -> n))
      0 g
  in
  check_int "one select" 1 selects;
  check "no cond_br left" true
    (match Block.terminator (Func.entry g) with Defs.Ret -> true | _ -> false)

let test_diamond_semantics () =
  agree diamond_src ~arrays:[ "A"; "B" ] ~size:16 ~ivals:[ 0; 3; 4; 9 ]

let test_triangle_keeps_old_value () =
  let src = {|
kernel t(double A[], double B[], long i) {
  if (i < 4) { A[i] = B[i] * 2.0; }
  A[i+8] = 1.0;
}
|} in
  let _, g, n = run_both src in
  check_int "converted" 1 n;
  check_int "single block" 1 (List.length (Func.blocks g));
  agree src ~arrays:[ "A"; "B" ] ~size:32 ~ivals:[ 0; 5 ]

let test_nested_ifs () =
  let src =
    {|
kernel n(double A[], double B[], long i) {
  if (i < 8) {
    if (i < 4) { A[i] = 1.0; } else { A[i] = 2.0; }
  } else {
    A[i] = 3.0;
  }
}
|}
  in
  let _, g, n = run_both src in
  check "both diamonds converted" true (n >= 2);
  check_int "single block" 1 (List.length (Func.blocks g));
  agree src ~arrays:[ "A"; "B" ] ~size:16 ~ivals:[ 0; 5; 9 ]

let test_unconvertible_mismatched_stores () =
  (* Branches store to different, potentially-overlapping places:
     A[i] vs A[i+1] are provably distinct (fine), but A[i] vs A[2*i]
     may overlap without being provably equal: bail. *)
  let src =
    {|
kernel u(double A[], long i) {
  if (i < 4) { A[i] = 1.0; } else { A[2*i] = 2.0; }
}
|}
  in
  let _, g, n = run_both src in
  check_int "not converted" 0 n;
  check "blocks remain" true (List.length (Func.blocks g) > 1)

let test_distinct_store_targets_convert () =
  (* Provably distinct targets need no pairing: each gets the
     keep-old-value treatment. *)
  let src =
    {|
kernel v(double A[], long i) {
  if (i < 4) { A[i+0] = 1.0; } else { A[i+1] = 2.0; }
}
|}
  in
  let _, _g, n = run_both src in
  check_int "converted" 1 n;
  agree src ~arrays:[ "A" ] ~size:16 ~ivals:[ 0; 7 ]

let test_ifconv_enables_vectorization () =
  (* Two adjacent conditional stores with the same condition: after
     flattening, SLP sees an adjacent store pair of selects. *)
  let src =
    {|
kernel w(double A[], double B[], double C[], long i) {
  if (i < 100) { A[i+0] = B[i+0] + C[i+0]; } else { A[i+0] = B[i+0] - C[i+0]; }
  if (i < 100) { A[i+1] = B[i+1] + C[i+1]; } else { A[i+1] = B[i+1] - C[i+1]; }
}
|}
  in
  let f = compile src in
  let result =
    Pipeline.run ~setting:(Some Snslp_vectorizer.Config.snslp) f
  in
  match result.Pipeline.vect_report with
  | Some rep ->
      check "flattened code vectorizes" true
        (rep.Snslp_vectorizer.Vectorize.stats.Snslp_vectorizer.Stats.graphs_vectorized
        >= 1)
  | None -> Alcotest.fail "no report"

(* A join that is a loop's preheader: the header's phi names the join
   as its incoming block, so flattening must hand that edge to the
   diamond's head.  Before if-conversion kept its predecessor map
   current, the phi kept naming the dropped join and the verifier
   rejected the result of every compile of this kernel. *)
let test_join_feeding_a_loop () =
  let src =
    {|
kernel l(double A[], double B[], long i) {
  if (B[i] > 1.0) { A[i] = 1.0; }
  for (long j = 0; j < i; j = j + 1) { A[i+j+1] = B[j] * 2.0; }
}
|}
  in
  let _, _, n = run_both src in
  check_int "converted" 1 n;
  agree src ~arrays:[ "A"; "B" ] ~size:32 ~ivals:[ 0; 3; 7 ];
  ignore (Pipeline.run ~setting:(Some Snslp_vectorizer.Config.snslp) (compile src))

(* A triangle whose join starts with a phi: absorbing the join moved
   the phi into the entry block, and the verifier rejected the result
   with Invalid_ir under every mode, o3 included.  The join is now
   refused and the function keeps its shape. *)
let test_join_with_phi_refused () =
  let src =
    "func @j(i64* %a, i64 %n) {\n\
     entry:\n\
    \  %d = icmp.lt i32 %n, 2\n\
    \  br %d, %t, %l\n\
     t:\n\
    \  br %l\n\
     l:\n\
    \  %p = phi.entry.t i64 1, 2\n\
    \  %g = gep i64* %a, 0\n\
    \  store %p, %g\n\
    \  ret\n\
     }\n"
  in
  let f = Ir_parser.parse src in
  check_int "nothing converted" 0 (Ifconv.run f);
  check_int "three blocks kept" 3 (List.length f.Defs.blocks);
  ignore (Pipeline.run ~setting:None (Ir_parser.parse src))

(* The scale experiment's nested shape (bench/main.ml, [scale_shapes]):
   [n] statements, each two nested ifs around one store. *)
let nested_ifs n =
  let b = Buffer.create (120 * n) in
  Buffer.add_string b "kernel scale_nested(double a[], double b[], double c[], long i) {\n";
  for k = 0 to n - 1 do
    Printf.bprintf b
      "  if (b[i+%d] > 0.0) { if (c[i+%d] > 0.0) { a[i+%d] = b[i+%d] * c[i+%d]; } }\n" k k k k k
  done;
  Buffer.add_string b "}\n";
  Buffer.contents b

(* A deterministic growth check: the words one [Ifconv.run] allocates
   on the nested shape at 125, 250 and 500 statements (2.7k to 11k
   instructions) may grow at most 2.2x per doubling.  Rescanning the
   block list per diamond grew 3.8-3.9x here; one predecessor map kept
   current grows 2.0x. *)
let test_allocation_growth () =
  let words n =
    let f = compile (nested_ifs n) in
    let before = Gc.minor_words () in
    ignore (Ifconv.run f);
    Gc.minor_words () -. before
  in
  let w125 = words 125 in
  let w250 = words 250 in
  let w500 = words 500 in
  List.iter
    (fun (step, ratio) ->
      if ratio > 2.2 then
        Alcotest.failf "allocation grew %.2fx from %s statements (limit 2.2x)" ratio step)
    [ ("125 to 250", w250 /. w125); ("250 to 500", w500 /. w250) ]

let suite =
  [
    ( "ifconv",
      [
        Alcotest.test_case "diamond becomes select" `Quick test_diamond_becomes_select;
        Alcotest.test_case "diamond semantics" `Quick test_diamond_semantics;
        Alcotest.test_case "triangle keeps old value" `Quick test_triangle_keeps_old_value;
        Alcotest.test_case "nested ifs" `Quick test_nested_ifs;
        Alcotest.test_case "bails on mismatched stores" `Quick
          test_unconvertible_mismatched_stores;
        Alcotest.test_case "distinct targets convert" `Quick
          test_distinct_store_targets_convert;
        Alcotest.test_case "enables vectorization" `Quick test_ifconv_enables_vectorization;
        Alcotest.test_case "join feeding a loop" `Quick test_join_feeding_a_loop;
        Alcotest.test_case "join starting with a phi" `Quick test_join_with_phi_refused;
        Alcotest.test_case "allocation growth per doubling" `Quick test_allocation_growth;
      ] );
  ]
