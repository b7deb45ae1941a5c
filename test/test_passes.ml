(* Tests for the scalar pass pipeline. *)

open Snslp_ir
open Snslp_passes

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let compile = Snslp_frontend.Frontend.compile_one

let count_instrs = Func.num_instrs

let test_fold_arithmetic () =
  let f = compile "kernel f(double A[], long i) { A[i] = 2.0 * 3.0 + 1.0; }" in
  let n = Fold.run f in
  check "folded something" true (n >= 2);
  (* The store now stores the constant 7.0 directly. *)
  let store = List.find Instr.is_store (Block.instrs (Func.entry f)) in
  check "constant stored" true (Value.equal (Instr.operand store 0) (Value.const_float 7.0))

let test_fold_index_addition () =
  let f = compile "kernel f(double A[], long i) { A[i+0] = 1.0; }" in
  ignore (Fold.run f);
  ignore (Simplify.run f);
  (* i+0 simplifies away: the gep indexes the argument directly. *)
  let gep =
    List.find (fun j -> j.Defs.op = Defs.Gep) (Block.instrs (Func.entry f))
  in
  check "gep uses arg" true
    (match Instr.operand gep 1 with Defs.Arg _ -> true | _ -> false)

let test_fold_int_cmp () =
  let f = compile "kernel f(double A[], long i) { if (1 < 2) { A[i] = 1.0; } }" in
  let n = Fold.run f in
  check "comparison folded" true (n >= 1)

let test_simplify_identities () =
  let f =
    compile
      {|
kernel f(double A[], double B[], long i) {
  A[i] = B[i] * 1.0 + 0.0;
  A[i+1] = B[i+1] / 1.0 - 0.0;
}
|}
  in
  let before = count_instrs f in
  let n = Simplify.run f in
  check "four identities" true (n >= 4);
  check "smaller" true (count_instrs f < before);
  Verifier.verify_exn f

let test_cse_loads_and_geps () =
  let f =
    compile
      {|
kernel f(double A[], double B[], long i) {
  A[i+0] = B[i] + B[i];
  A[i+1] = B[i] * B[i];
}
|}
  in
  ignore (Fold.run f);
  ignore (Simplify.run f);
  let n = Cse.run f in
  check "eliminated repeats" true (n >= 3);
  let loads =
    Func.fold_instrs (fun n j -> if Instr.is_load j then n + 1 else n) 0 f
  in
  check_int "one load of B[i] remains" 1 loads;
  Verifier.verify_exn f

let test_cse_commutative_normalisation () =
  let f =
    compile
      {|
kernel f(double A[], double B[], double C[], long i) {
  A[i+0] = B[i] + C[i];
  A[i+1] = C[i] + B[i];
}
|}
  in
  ignore (Cse.run f);
  let adds =
    Func.fold_instrs
      (fun n j -> if Instr.binop_kind j = Some Defs.Add && Ty.is_float j.Defs.ty then n + 1 else n)
      0 f
  in
  check_int "a+b meets b+a" 1 adds

let test_cse_distinct_float_constants () =
  (* The constants agree to six significant digits: keyed by that
     printing, CSE stored the first product twice. *)
  let source =
    {|
kernel f(double a[], double b[], long i) {
  b[i] = a[i] * 1.000001;
  b[i+1] = a[i] * 1.000002;
}
|}
  in
  let wl =
    Snslp_kernels.Workload.prepare
      {
        Snslp_kernels.Registry.name = "cse_constants";
        provenance = "test";
        description = "";
        source;
        istride = 2;
        extent = 2;
        default_iters = 4;
      }
  in
  let f = wl.Snslp_kernels.Workload.func in
  let out = (Pipeline.run ~setting:None f).Pipeline.func in
  let fmuls =
    Func.fold_instrs
      (fun n j -> if Instr.binop_kind j = Some Defs.Mul && Ty.is_float j.Defs.ty then n + 1 else n)
      0 out
  in
  check_int "both products survive" 2 fmuls;
  check "bit-identical to the unoptimised function" true
    (Snslp_interp.Memory.equal
       (Snslp_kernels.Workload.run_interp wl f)
       (Snslp_kernels.Workload.run_interp wl out))

let count_fmuls f =
  Func.fold_instrs
    (fun n j -> if Instr.binop_kind j = Some Defs.Mul && Ty.is_float j.Defs.ty then n + 1 else n)
    0 f

(* Constants are told apart by their bits: [x * 0.0] and [x * -0.0]
   differ in the sign of a zero result. *)
let test_cse_signed_zeros () =
  let f =
    Ir_parser.parse
      {|func @f(f64* %a, f64* %b, i64 %i) {
entry:
  %p = gep f64* %a, %i
  %x = load f64 %p
  %m = fmul f64 %x, 0
  %n = fmul f64 %x, -0
  %q = gep f64* %b, %i
  store %m, %q
  store %n, %q
  ret
}
|}
  in
  ignore (Cse.run f);
  check_int "a[i]*0.0 and a[i]*-0.0 stay two fmuls" 2 (count_fmuls f);
  Verifier.verify_exn f

(* Operands are told apart by identity, not by their printed names:
   two loads that share a name still feed two products. *)
let test_cse_ignores_names () =
  let f =
    Ir_parser.parse
      {|func @f(f64* %a, f64* %b, i64 %i) {
entry:
  %p = gep f64* %a, %i
  %x = load f64 %p
  %j = add i64 %i, 1
  %r = gep f64* %a, %j
  %y = load f64 %r
  %m = fmul f64 %x, 2
  %n = fmul f64 %y, 2
  %q = gep f64* %b, %i
  store %m, %q
  store %n, %q
  ret
}
|}
  in
  Func.iter_instrs (fun i -> if Instr.is_load i then Instr.set_name i "x") f;
  ignore (Cse.run f);
  check_int "both products survive" 2 (count_fmuls f)

let test_cse_store_kills_load () =
  let f =
    compile
      {|
kernel f(double A[], long i) {
  double t = A[i];
  A[i] = t + 1.0;
  A[i+4] = A[i];
}
|}
  in
  ignore (Cse.run f);
  let loads =
    Func.fold_instrs (fun n j -> if Instr.is_load j then n + 1 else n) 0 f
  in
  (* The second A[i] load must NOT be unified with the first: a store
     to A[i] intervenes. *)
  check_int "both loads survive" 2 loads;
  Verifier.verify_exn f

let test_dce_removes_dead_code () =
  let f =
    compile
      {|
kernel f(double A[], double B[], long i) {
  double dead = B[i] * 3.0;
  A[i] = 1.0;
}
|}
  in
  let n = Dce.run f in
  check "dead multiply removed" true (n >= 2);
  let muls = Func.fold_instrs (fun n j -> if Instr.binop_kind j = Some Defs.Mul then n + 1 else n) 0 f in
  check_int "no multiplies" 0 muls

let test_dce_keeps_branch_condition () =
  let f =
    compile
      {|
kernel f(double A[], long i) {
  if (i < 4) { A[i] = 1.0; }
}
|}
  in
  ignore (Dce.run f);
  let cmps =
    Func.fold_instrs
      (fun n j -> (match j.Defs.op with Defs.Icmp _ -> n + 1 | _ -> n))
      0 f
  in
  check_int "condition survives" 1 cmps;
  Verifier.verify_exn f

(* --- Edge cases of the iid-indexed tables ------------------------------- *)

let named f name =
  match Func.fold_instrs (fun acc j -> if j.Defs.iname = name then Some j else acc) None f with
  | Some j -> j
  | None -> Alcotest.failf "no instruction %%%s" name

let check_ir f =
  Verifier.verify_exn f;
  match Func.check_use_lists f with Ok () -> () | Error e -> Alcotest.fail e

let first_store f = List.find Instr.is_store (Block.instrs (Func.entry f))

(* A fresh instruction, so the one with the highest id, inserted
   before the entry block's first store, which then stores it. *)
let feed_store f op ty ops =
  let i = Func.fresh_instr f op ty ops in
  Block.insert_before (Func.entry f) ~anchor:(first_store f) i;
  Instr.set_operand (first_store f) 0 (Defs.Instr i);
  i

let fconst = Value.const_float

(* The instruction with the highest id, [next_iid - 1], is the last
   slot of the replacement array; CSE and fold must reach it. *)
let test_rewrite_replaces_last_iid () =
  let src =
    {|func @f(f64* %a, f64* %b, i64 %i) {
entry:
  %p = gep f64* %a, %i
  %x = load f64 %p
  %q = gep f64* %b, %i
  store %x, %q
  ret
}
|}
  in
  let f = Ir_parser.parse src in
  let dup = feed_store f Defs.Load Ty.f64 [| Defs.Instr (named f "p") |] in
  check_int "the duplicate load has the highest id" (f.Defs.next_iid - 1) dup.Defs.iid;
  check_int "cse replaces it" 1 (Cse.run f);
  check "the store reads the first load" true
    (Value.equal (Instr.operand (first_store f) 0) (Defs.Instr (named f "x")));
  check "the duplicate is gone" false (Block.mem (Func.entry f) dup);
  check_ir f;
  let g = Ir_parser.parse src in
  let sum = feed_store g (Defs.Binop Defs.Add) Ty.f64 [| fconst 2.0; fconst 3.0 |] in
  check_int "the sum has the highest id" (g.Defs.next_iid - 1) sum.Defs.iid;
  check_int "fold replaces it" 1 (Fold.run g);
  check "the store stores 5" true (Value.equal (Instr.operand (first_store g) 0) (fconst 5.0));
  check_ir g

(* --- Uses the sweep meets before their definition ----------------------- *)

let iconst = Value.const_int

let operand_is f name n v = Value.equal (Instr.operand (named f name) n) v

let cond_of (b : Defs.block) =
  match b.Defs.term with
  | Defs.Cond_br (c, _, _) -> c
  | _ -> Alcotest.failf "%s does not branch on a condition" b.Defs.bname

let block_named f name = List.find (fun (b : Defs.block) -> b.Defs.bname = name) (Func.blocks f)

(* A phi reads its back-edge value from the latch, after the header:
   a folded and a CSE'd back-edge value are redirected all the
   same. *)
let test_rewrite_phi_back_edge () =
  let src =
    {|func @f(f64* %a, i64 %n) {
entry:
  br %h
h:
  %k = phi.entry.l i64 0, %y
  %m = phi.entry.l i64 0, %s
  %c = icmp.lt i32 %k, %n
  br %c, %l, %e
l:
  %x = add i64 %k, 1
  %y = add i64 %k, 1
  %s = add i64 2, 3
  %p = gep f64* %a, %m
  %q = gep f64* %a, %x
  store 1, %p
  store 2, %q
  br %h
e:
  ret
}
|}
  in
  let f = Ir_parser.parse src in
  check_int "fold replaces the sum" 1 (Fold.run f);
  check "the phi reads the constant on its back edge" true (operand_is f "m" 1 (iconst 5));
  check_ir f;
  let g = Ir_parser.parse src in
  check_int "cse replaces the second add" 1 (Cse.run g);
  check "the phi reads the first add on its back edge" true
    (operand_is g "k" 1 (Defs.Instr (named g "x")));
  check_ir g

(* A block listed before the block that defines what it uses: the
   dominator tree, not the block list, orders them. *)
let test_rewrite_earlier_block () =
  let src =
    {|func @f(f64* %a, i64 %i) {
entry:
  br %def
def:
  %s = add i64 2, 3
  %t = add i64 %i, 1
  %u = add i64 %i, 1
  br %use
use:
  %p = gep f64* %a, %s
  %q = gep f64* %a, %u
  store 1, %p
  store 2, %q
  ret
}
|}
  in
  let parse () =
    let f = Ir_parser.parse src in
    f.Defs.blocks <- List.map (block_named f) [ "entry"; "use"; "def" ];
    f
  in
  let f = parse () in
  check_int "fold replaces the sum" 1 (Fold.run f);
  check "the earlier block reads the constant" true (operand_is f "p" 1 (iconst 5));
  check_ir f;
  let g = parse () in
  check_int "cse replaces the second add" 1 (Cse.run g);
  check "the earlier block reads the first add" true
    (operand_is g "q" 1 (Defs.Instr (named g "t")));
  check_ir g

(* Branch conditions are no instruction's operands: the sweep repoints
   them itself, also when the branch is listed before the condition's
   block, and when the replacement is replaced in turn (with [def]
   listed last, the select folds to [%z] before [%z] folds to 1). *)
let test_rewrite_branch_conditions () =
  let src =
    {|func @f(f64* %a, i64 %i) {
entry:
  br %def
def:
  %c = icmp.lt i32 %i, 4
  %d = icmp.lt i32 %i, 4
  %z = icmp.lt i32 2, 3
  br %d, %use, %join
use:
  %x = select i32 1, %z, %c
  br %x, %other, %join
other:
  br %z, %join, %use
join:
  ret
}
|}
  in
  let parse order =
    let f = Ir_parser.parse src in
    f.Defs.blocks <- List.map (block_named f) order;
    f
  in
  let one = iconst ~ty:Ty.i32 1 in
  List.iter
    (fun order ->
      let f = parse order in
      check_int "fold replaces the constant compare and the select" 2 (Fold.run f);
      check "a branch on the compare reads 1" true (Value.equal (cond_of (block_named f "other")) one);
      check "a branch on the select reads 1" true (Value.equal (cond_of (block_named f "use")) one);
      check_ir f;
      let g = parse order in
      check_int "cse replaces the second compare" 1 (Cse.run g);
      check "the branch reads the first compare" true
        (Value.equal (cond_of (block_named g "def")) (Defs.Instr (named g "c")));
      check_ir g)
    [ [ "entry"; "def"; "use"; "other"; "join" ]; [ "entry"; "use"; "other"; "join"; "def" ] ]

(* A clone keeps its original's [next_iid] however few instructions it
   holds: the passes size their tables from it, not from the count. *)
let test_passes_on_sparse_clone () =
  let f =
    compile
      {|
kernel f(double A[], double B[], long i) {
  double dead = B[i] * 3.0;
  A[i+0] = B[i] * 1.0 + 2.0 * 3.0;
  A[i+1] = B[i] + 0.0;
}
|}
  in
  f.Defs.next_iid <- f.Defs.next_iid + 100_000;
  ignore (feed_store f (Defs.Binop Defs.Mul) Ty.f64 [| fconst 2.0; fconst 4.0 |]);
  let before = count_instrs f in
  let g = Func.clone f in
  check_int "the clone keeps next_iid" f.Defs.next_iid g.Defs.next_iid;
  check "far above its instruction count" true (g.Defs.next_iid > 1000 * count_instrs g);
  check "fold" true (Fold.run g >= 2);
  check "simplify" true (Simplify.run g >= 2);
  check "cse" true (Cse.run g >= 1);
  let n = count_instrs g in
  let erased = Dce.run g in
  check "dce erased the dead multiply" true (erased >= 2);
  check_int "dce's count is what it erased" (n - erased) (count_instrs g);
  check "the late constant product folded into the store" true
    (Value.equal (Instr.operand (first_store g) 0) (fconst 8.0));
  check_ir g;
  check_int "the original is untouched" before (count_instrs f)

(* Liveness counts attached users only: a user detached with
   [Block.remove] (its operand uses still registered) keeps nothing
   alive. *)
let test_dce_detached_user () =
  let f =
    Ir_parser.parse
      {|func @f(f64* %a, f64* %b, i64 %i) {
entry:
  %p = gep f64* %a, %i
  %x = load f64 %p
  %m = fmul f64 %x, 2
  %q = gep f64* %b, %i
  %y = load f64 %q
  store %y, %p
  ret
}
|}
  in
  let x = named f "x" and m = named f "m" in
  Block.remove (Func.entry f) m;
  check "x's use list still holds the detached user" true (Use.exists (fun u _ -> u == m) x);
  let before = count_instrs f in
  check_int "dce erases x alone" 1 (Dce.run f);
  check "x is gone" false (Block.mem (Func.entry f) x);
  check_int "one instruction fewer" (before - 1) (count_instrs f);
  check_ir f

(* A branch condition is a root even when the branch is its only use
   and it sits in another block. *)
let test_dce_condition_only_use () =
  let f =
    Ir_parser.parse
      {|func @f(f64* %a, i64 %i) {
entry:
  %c = icmp.lt i32 %i, 4
  %d = add i64 %i, 1
  br %test
test:
  br %c, %then, %join
then:
  %p = gep f64* %a, %i
  store 1, %p
  br %join
join:
  ret
}
|}
  in
  check_int "only the unused add goes" 1 (Dce.run f);
  ignore (named f "c");
  check_ir f

(* DCE's count is exactly the instructions it erased, cascades
   included. *)
let test_dce_count () =
  let f =
    compile
      {|
kernel f(double A[], double B[], long i) {
  double t = B[i] * 3.0 + B[i+1] / 2.0;
  double u = t - B[i+2];
  A[i] = B[i+3];
}
|}
  in
  let before = count_instrs f in
  let erased = Dce.run f in
  check "a cascade" true (erased >= 8);
  check_int "count = instructions erased" (before - erased) (count_instrs f);
  check_ir f

(* A store to a[i+1] may overwrite a[j+1] (same argument, another
   symbolic index) but never b[i+1] (another argument). *)
let test_cse_store_kills_by_region () =
  let f =
    compile
      {|
kernel f(double a[], double b[], double c[], long i, long j) {
  double x = a[j+1];
  double y = b[i+1];
  a[i+1] = 1.0;
  c[i] = a[j+1] + b[i+1];
  c[i+1] = x + y;
}
|}
  in
  ignore (Cse.run f);
  let loads_of name =
    Func.fold_instrs
      (fun n j ->
        match Snslp_analysis.Address.of_instr j with
        | Some { Snslp_analysis.Address.base = Defs.Arg a; _ }
          when Instr.is_load j && a.Defs.arg_name = name -> n + 1
        | _ -> n)
      0 f
  in
  check_int "a[j+1] is loaded again after the store" 2 (loads_of "a");
  check_int "b[i+1] is reused" 1 (loads_of "b");
  check_ir f

let test_pipeline_end_to_end () =
  let f =
    compile
      {|
kernel f(double A[], double B[], long i) {
  A[i+0] = B[i+0] * 1.0 + 0.0;
  A[i+1] = B[i+1] + 0.0;
}
|}
  in
  let result = Pipeline.run ~setting:(Some Snslp_vectorizer.Config.snslp) f in
  Verifier.verify_exn result.Pipeline.func;
  check "input untouched" true (Func.num_instrs f > 0);
  check "timings recorded" true (List.length result.Pipeline.timings >= 5);
  check "total time positive" true (result.Pipeline.total_seconds >= 0.0);
  (* The multiplicative identities are gone, and the pair vectorizes
     into B[i:i+1] + splat-free pure vector code. *)
  let out = result.Pipeline.func in
  let muls = Func.fold_instrs (fun n j -> if Instr.binop_kind j = Some Defs.Mul then n + 1 else n) 0 out in
  check_int "identity multiply eliminated" 0 muls

let test_pipeline_o3_has_no_vect_report () =
  let f = compile "kernel f(double A[], long i) { A[i] = 1.0; }" in
  let result = Pipeline.run ~setting:None f in
  check "no report under o3" true (result.Pipeline.vect_report = None)

let suite =
  [
    ( "passes",
      [
        Alcotest.test_case "fold arithmetic" `Quick test_fold_arithmetic;
        Alcotest.test_case "fold index addition" `Quick test_fold_index_addition;
        Alcotest.test_case "fold integer compare" `Quick test_fold_int_cmp;
        Alcotest.test_case "simplify identities" `Quick test_simplify_identities;
        Alcotest.test_case "cse loads and geps" `Quick test_cse_loads_and_geps;
        Alcotest.test_case "cse commutative" `Quick test_cse_commutative_normalisation;
        Alcotest.test_case "cse distinct float constants" `Quick
          test_cse_distinct_float_constants;
        Alcotest.test_case "cse signed zeros" `Quick test_cse_signed_zeros;
        Alcotest.test_case "cse ignores names" `Quick test_cse_ignores_names;
        Alcotest.test_case "cse store kills load" `Quick test_cse_store_kills_load;
        Alcotest.test_case "dce removes dead code" `Quick test_dce_removes_dead_code;
        Alcotest.test_case "dce keeps branch condition" `Quick
          test_dce_keeps_branch_condition;
        Alcotest.test_case "rewrite replaces the last iid" `Quick test_rewrite_replaces_last_iid;
        Alcotest.test_case "rewrite redirects a phi back edge" `Quick test_rewrite_phi_back_edge;
        Alcotest.test_case "rewrite redirects an earlier block" `Quick test_rewrite_earlier_block;
        Alcotest.test_case "rewrite repoints branch conditions" `Quick
          test_rewrite_branch_conditions;
        Alcotest.test_case "passes on a sparse clone" `Quick test_passes_on_sparse_clone;
        Alcotest.test_case "dce detached user" `Quick test_dce_detached_user;
        Alcotest.test_case "dce condition's only use" `Quick test_dce_condition_only_use;
        Alcotest.test_case "dce count" `Quick test_dce_count;
        Alcotest.test_case "cse store kills by region" `Quick test_cse_store_kills_by_region;
        Alcotest.test_case "pipeline end to end" `Quick test_pipeline_end_to_end;
        Alcotest.test_case "o3 has no vectorizer report" `Quick
          test_pipeline_o3_has_no_vect_report;
      ] );
  ]
