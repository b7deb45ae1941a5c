(* Tests for the analysis library: affine summaries, address
   adjacency, dependence and bundling legality. *)

open Snslp_ir
open Snslp_analysis

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Build a block from KernelC for analysis. *)
let block_of src =
  let f = Snslp_frontend.Frontend.compile_one src in
  (f, Func.entry f)

(* --- Affine ------------------------------------------------------------ *)

let test_affine_const () =
  let a = Affine.of_value (Value.const_int 7) in
  check "const is const" true (Affine.is_const a);
  check_int "value" 7 a.Affine.const

let test_affine_linear () =
  (* Build 6*i + 5 by hand. *)
  let f = Func.create ~name:"aff" ~args:[ ("i", Ty.i64) ] in
  let entry = Func.add_block f "entry" in
  let b = Builder.create f ~at:entry in
  let i = Defs.Arg (Func.arg f 0) in
  let m = Builder.mul b (Value.const_int 6) i in
  let s = Builder.add b (Instr.value m) (Value.const_int 5) in
  Builder.ret b;
  let a = Affine.of_value (Instr.value s) in
  check_int "const part" 5 a.Affine.const;
  check "not const" false (Affine.is_const a);
  (* 6*i+5 and 6*i+6 differ by one. *)
  let s2 = Affine.add a (Affine.const 1) in
  check "delta" true (Affine.delta a s2 = Some 1);
  (* i - i cancels. *)
  let z = Affine.sub (Affine.of_value i) (Affine.of_value i) in
  check "cancel" true (Affine.is_const z && z.Affine.const = 0)

let test_affine_scale_and_neg () =
  let f = Func.create ~name:"aff2" ~args:[ ("i", Ty.i64); ("j", Ty.i64) ] in
  let entry = Func.add_block f "entry" in
  let b = Builder.create f ~at:entry in
  let i = Defs.Arg (Func.arg f 0) and j = Defs.Arg (Func.arg f 1) in
  (* (i + j) * 2 - (i + i) = 2j - ... exercise sub and non-const mul. *)
  let sum = Builder.add b i j in
  let dbl = Builder.mul b (Instr.value sum) (Value.const_int 2) in
  let ii = Builder.add b i i in
  let e = Builder.sub b (Instr.value dbl) (Instr.value ii) in
  Builder.ret b;
  let a = Affine.of_value (Instr.value e) in
  (* 2i + 2j - 2i = 2j *)
  check "2j" true (Affine.equal a (Affine.scale 2 (Affine.of_value j)));
  (* A non-constant multiply is opaque. *)
  let nc = Builder.mul b i j in
  let a = Affine.of_value (Instr.value nc) in
  check "opaque" false (Affine.is_const a)

(* --- Address ------------------------------------------------------------ *)

let test_address_adjacency () =
  let _f, blk =
    block_of
      {|
kernel adj(double A[], double B[], long i) {
  A[i+0] = B[i+0];
  A[i+1] = B[i+1];
  A[i+5] = B[2*i];
}
|}
  in
  let stores = List.filter Instr.is_store (Block.instrs blk) in
  let addrs = List.filter_map Address.of_instr stores in
  match addrs with
  | [ a0; a1; a5 ] ->
      check "a0/a1 adjacent" true (Address.adjacent a0 a1);
      check "a1/a0 not adjacent" false (Address.adjacent a1 a0);
      check "a1/a5 not adjacent" false (Address.adjacent a1 a5);
      check "delta within same symbolic part" true (Address.delta a1 a5 = Some 4);
      check "consecutive list" true (Address.consecutive [ a0; a1 ]);
      check "non-consecutive list" false (Address.consecutive [ a0; a1; a5 ])
  | _ -> Alcotest.fail "expected three stores"

let test_address_different_bases () =
  let _f, blk =
    block_of
      {|
kernel bases(double A[], double B[], long i) {
  A[i] = 1.0;
  B[i] = 2.0;
}
|}
  in
  let stores = List.filter Instr.is_store (Block.instrs blk) in
  let addrs = List.filter_map Address.of_instr stores in
  match addrs with
  | [ a; b ] ->
      check "different bases" false (Address.same_base a b);
      check "no delta" true (Address.delta a b = None)
  | _ -> Alcotest.fail "expected two stores"

(* --- Deps ---------------------------------------------------------------- *)

let test_deps_register () =
  let _f, blk =
    block_of
      {|
kernel dep(double A[], double B[], long i) {
  double t = B[i] + 1.0;
  A[i] = t * 2.0;
}
|}
  in
  let deps = Deps.of_block blk in
  let instrs = Array.of_list (Block.instrs blk) in
  let load = instrs.(1) in
  let add = instrs.(2) in
  let mul = instrs.(3) in
  check "add depends on load" true (Deps.depends deps ~on:load add);
  check "mul transitively depends on load" true (Deps.depends deps ~on:load mul);
  check "load does not depend on mul" false (Deps.depends deps ~on:mul load);
  let group is = Array.of_list (List.map Instr.value is) in
  check "dependent group rejected" false (Deps.schedulable deps [ group [ load; mul ] ]);
  check "one-member group ok" true (Deps.schedulable deps [ group [ load ] ]);
  check "dependent group has no placement" true (Deps.bundle_placement deps [ load; mul ] = None)

let test_deps_memory_ordering () =
  (* A store between two loads of the same location orders them. *)
  let _f, blk =
    block_of
      {|
kernel mem(double A[], long i) {
  double t = A[i];
  A[i] = t + 1.0;
  double u = A[i];
  A[i+1] = u;
}
|}
  in
  let deps = Deps.of_block blk in
  let store1 = List.hd (List.filter Instr.is_store (Block.instrs blk)) in
  let load2 = List.nth (List.filter Instr.is_load (Block.instrs blk)) 1 in
  check "load after store depends on it" true (Deps.depends deps ~on:store1 load2)

let test_bundle_placement () =
  (* Stores to A[i], A[i+1] with a load of A[i+1] in between: bundling
     at the last store is legal (the first store slides past a
     non-conflicting load). *)
  let _f, blk =
    block_of
      {|
kernel bp(double A[], long i) {
  A[i+0] = A[i+0] + 1.0;
  A[i+1] = A[i+1] + 2.0;
}
|}
  in
  let deps = Deps.of_block blk in
  let stores = List.filter Instr.is_store (Block.instrs blk) in
  check "stores bundle at last" true (Deps.bundle_placement deps stores = Some Deps.At_last);
  (* The loads of A[i] and A[i+1]: the store to A[i] sits between them
     and conflicts with the first load, so they bundle at the first. *)
  let loads = List.filter Instr.is_load (Block.instrs blk) in
  check_int "two loads" 2 (List.length loads);
  check "loads bundle at first" true
    (Deps.bundle_placement deps loads = Some Deps.At_first)

let test_bundle_blocked () =
  (* A[i] stored, then read, then A[i+1] stored: the read conflicts
     with the first store sliding down AND with the second store
     sliding up?  The load reads A[i], conflicting only with the first
     store; sliding the first store down past the load is illegal, but
     sliding the second store up past the load is fine. *)
  let _f, blk =
    block_of
      {|
kernel bb(double A[], double B[], long i) {
  A[i+0] = 1.0;
  B[i] = A[i+0];
  A[i+1] = 2.0;
}
|}
  in
  let deps = Deps.of_block blk in
  let stores =
    List.filter
      (fun s ->
        Instr.is_store s
        &&
        match Address.of_instr s with
        | Some a -> ( match a.Address.base with Defs.Arg g -> g.Defs.arg_pos = 0 | _ -> false)
        | None -> false)
      (Block.instrs blk)
  in
  check_int "two A-stores" 2 (List.length stores);
  check "bundle at first only" true
    (Deps.bundle_placement deps stores = Some Deps.At_first)

let test_bundle_impossible () =
  (* A[i] = ..; t = A[i];  A[i] = t+1 at [i+1]?  Make both directions
     illegal: store A[i]; load A[i]; store A[i+1] where the load also
     reads A[i+1]. Use two loads. *)
  let _f, blk =
    block_of
      {|
kernel bi(double A[], double B[], long i) {
  A[i+0] = 1.0;
  B[i] = A[i+0] + A[i+1];
  A[i+1] = 2.0;
}
|}
  in
  let deps = Deps.of_block blk in
  let stores =
    List.filter
      (fun s ->
        Instr.is_store s
        &&
        match Address.of_instr s with
        | Some a -> ( match a.Address.base with Defs.Arg g -> g.Defs.arg_pos = 0 | _ -> false)
        | None -> false)
      (Block.instrs blk)
  in
  check "no legal placement" true (Deps.bundle_placement deps stores = None)

(* One analysis, asked again after each edit of its block with no
   other call in between, answers for the block as it is now. *)
let test_deps_notices_edits () =
  let f, blk =
    block_of
      {|
kernel st(double A[], long i) {
  A[i+0] = 1.0;
  A[i+1] = 2.0;
}
|}
  in
  let deps = Deps.of_block blk in
  let stores = List.filter Instr.is_store (Block.instrs blk) in
  check "stores bundle at last" true (Deps.bundle_placement deps stores = Some Deps.At_last);
  (* Loads of A[i] and A[i+1] just before the second store: the first
     store cannot slide down past the load of A[i], nor the second up
     past the load of A[i+1]. *)
  let second = List.nth stores 1 in
  let load k = Func.fresh_instr f Defs.Load Ty.f64 [| Instr.operand (List.nth stores k) 1 |] in
  let loads = [ load 0; load 1 ] in
  List.iter (Block.insert_before blk ~anchor:second) loads;
  check "loads in between: no placement" true (Deps.bundle_placement deps stores = None);
  let summary =
    Option.map (fun (m : Deps.memloc) -> (Address.to_string m.Deps.addr, m.Deps.width))
  in
  List.iter
    (fun l ->
      check "summary of an inserted load" true
        (summary (Deps.memloc deps l) = summary (Deps.memloc_of_instr l)))
    loads;
  List.iter (Func.erase_instr f) loads;
  check "loads removed: at last again" true
    (Deps.bundle_placement deps stores = Some Deps.At_last)

let test_deps_notices_operand_change () =
  let _f, blk =
    block_of
      {|
kernel op(double A[], double B[], double C[], long i) {
  B[i] = A[i] + 1.0;
  C[i] = A[i+1] * 2.0;
}
|}
  in
  let deps = Deps.of_block blk in
  let find p = List.find p (Block.instrs blk) in
  let add = find (fun i -> Instr.binop_kind i = Some Defs.Add) in
  let mul = find (fun i -> Instr.binop_kind i = Some Defs.Mul) in
  check "mul independent of add" false (Deps.depends deps ~on:add mul);
  Instr.set_operand mul 1 (Instr.value add);
  check "mul depends on add once it reads it" true (Deps.depends deps ~on:add mul)

(* Instructions created after a view was read get ids past every id
   the view indexed, as massage and codegen create them: the view
   answers on them what a fresh analysis of the block and the
   brute-force closure of the explicit dependence graph answer.  The
   ids sit far past the view's, so its position array must grow. *)
let test_deps_fresh_ids () =
  let f, blk =
    block_of
      {|
kernel fr(double A[], double B[], long i) {
  double x = A[i+0] + B[i+0];
  A[i+1] = x;
  B[i+1] = A[i+2] * x;
  A[i+3] = B[i+2];
}
|}
  in
  let deps = Deps.of_block blk in
  let old = Block.to_array blk in
  let n_old = Array.length old in
  check "first reaches last" false (Deps.depends deps ~on:old.(n_old - 1) old.(0));
  f.Defs.next_iid <- f.Defs.next_iid + 100_000;
  let stores = Array.of_list (List.filter Instr.is_store (Array.to_list old)) in
  let loads = Array.of_list (List.filter Instr.is_load (Array.to_list old)) in
  let x = List.find (fun i -> Instr.binop_kind i = Some Defs.Add) (Array.to_list old) in
  (* A load of the cell the first store writes, an add of it and [x],
     and a store of the sum to the cell the last load reads; each
     placed before an instruction of the block. *)
  let ld = Func.fresh_instr f Defs.Load Ty.f64 [| Instr.operand stores.(0) 1 |] in
  Block.insert_before blk ~anchor:stores.(1) ld;
  let add = Func.fresh_instr f (Defs.Binop Defs.Add) Ty.f64 [| Instr.value ld; Instr.value x |] in
  Block.insert_before blk ~anchor:stores.(1) add;
  let st = Func.fresh_instr f Defs.Store Ty.i32 [| Instr.value add; Instr.operand loads.(3) 0 |] in
  Block.insert_before blk ~anchor:stores.(2) st;
  let fresh_instrs = [ ld; add; st ] in
  List.iter
    (fun (i : Defs.instr) -> check "a fresh id" true (i.Defs.iid >= f.Defs.next_iid - 3))
    fresh_instrs;
  (* [memloc] never re-reads, so it answers before any other query. *)
  let summary =
    Option.map (fun (m : Deps.memloc) -> (Address.to_string m.Deps.addr, m.Deps.width))
  in
  List.iter
    (fun i ->
      check "memloc of a fresh instruction" true
        (summary (Deps.memloc deps i) = summary (Deps.memloc_of_instr i)))
    fresh_instrs;
  (* Every answer of the view first, before a fresh analysis of the
     block writes positions of its own. *)
  let instrs = Block.to_array blk in
  let n = Array.length instrs in
  let involved a b = List.memq instrs.(a) fresh_instrs || List.memq instrs.(b) fresh_instrs in
  let depends d = Array.init n (fun a -> Array.init n (fun b -> Deps.depends d ~on:instrs.(a) instrs.(b))) in
  let got = depends deps in
  List.iter
    (fun i ->
      check "memloc after the re-read" true
        (summary (Deps.memloc deps i) = summary (Deps.memloc_of_instr i)))
    fresh_instrs;
  let value = Instr.value in
  let groups =
    [
      [ [| value ld; value loads.(0) |] ];
      [ [| value ld; value loads.(3) |] ];
      [ [| value st; value stores.(0) |] ];
      [ [| value st; value stores.(2) |] ];
      [ [| value add; value x |] ];
      [ [| value ld; value loads.(1) |]; [| value st; value stores.(1) |] ];
      [ [| value add; value stores.(1) |]; [| value ld; value loads.(3) |] ];
    ]
  in
  let placement d = function
    | [ g ] -> Some (Deps.bundle_placement d (List.filter_map Value.as_instr (Array.to_list g)))
    | _ -> None
  in
  let answers d = List.map (fun gs -> (Deps.schedulable d gs, placement d gs)) groups in
  let verdicts = answers deps in
  let again = Deps.of_block blk in
  let expected = depends again in
  let users = Test_properties.direct_users instrs in
  for a = 0 to n - 1 do
    let reached = Array.make n false in
    let rec visit j =
      List.iter
        (fun k ->
          if not reached.(k) then begin
            reached.(k) <- true;
            visit k
          end)
        users.(j)
    in
    visit a;
    for b = 0 to n - 1 do
      if involved a b then begin
        check "depends: brute force" reached.(b) got.(a).(b);
        check "depends: fresh analysis" expected.(a).(b) got.(a).(b)
      end
    done
  done;
  check "schedulable and placement: fresh analysis" true (answers again = verdicts);
  let verdicts = List.map fst verdicts in
  check "both verdicts" true (List.mem true verdicts && List.mem false verdicts)

(* The kernel of test_vectorizer's "a group closing a cycle is
   gathered", as the vectorizer sees it (loop unrolled, if
   converted): the load groups [a[i+1], a[i+2]] and [b[i+1], b[i+2]]
   of its committed tree can each be fused, and not both.  Lane 0 of
   [a] feeds the store to [b[i+2]] that lane 1 of [b] reads, and lane
   0 of [b] is stored to [a[i+2]] before lane 1 of [a] reads it. *)
let test_deps_cycle_through_two_groups () =
  let open Snslp_vectorizer in
  let src =
    "kernel r(double a[], double b[], double c[], long i) { if (c[i+0] <= a[i+1]) { b[i+2] = \
     a[i+2]; } for (long j = 0; j < 2; j = j + 1) { a[i+j+2] = b[i+j+1]; c[i+j+0] = \
     ((c[i+j+3] + b[i+j+1]) - (a[i+j+1] + a[i+j+2])); } }"
  in
  let reads name (n : Graph.node) =
    Array.for_all
      (function
        | Defs.Instr i when Instr.is_load i -> (
            match Address.of_instr i with
            | Some { Address.base = Defs.Arg a; _ } -> a.Defs.arg_name = name
            | _ -> false)
        | _ -> false)
      n.Graph.scalars
  in
  let checked = ref 0 in
  let on_graph (g : Graph.t) =
    (* The tree check turned the [a] group into a gather. *)
    let nodes = Graph.nodes g in
    match
      ( List.find_opt (fun n -> n.Graph.kind = Graph.K_gather && reads "a" n) nodes,
        List.find_opt (fun n -> n.Graph.kind = Graph.K_vec && reads "b" n) nodes )
    with
    | Some ga, Some gb ->
        incr checked;
        let deps = Deps.of_block g.Graph.block in
        let instrs (n : Graph.node) = List.filter_map Value.as_instr (Array.to_list n.Graph.scalars) in
        check "a group alone" true (Deps.schedulable deps [ ga.Graph.scalars ]);
        check "b group alone" true (Deps.schedulable deps [ gb.Graph.scalars ]);
        check "a group has a placement" true (Deps.bundle_placement deps (instrs ga) <> None);
        check "b group has a placement" true (Deps.bundle_placement deps (instrs gb) <> None);
        check "not both" false (Deps.schedulable deps [ ga.Graph.scalars; gb.Graph.scalars ])
    | _ -> ()
  in
  ignore
    (Snslp_passes.Pipeline.run ~setting:(Some Config.vanilla) ~on_graph
       (Snslp_frontend.Frontend.compile_one src));
  check_int "one tree checked" 1 !checked

let suite =
  [
    ( "affine",
      [
        Alcotest.test_case "constants" `Quick test_affine_const;
        Alcotest.test_case "linear forms" `Quick test_affine_linear;
        Alcotest.test_case "scale and negation" `Quick test_affine_scale_and_neg;
      ] );
    ( "address",
      [
        Alcotest.test_case "adjacency" `Quick test_address_adjacency;
        Alcotest.test_case "different bases" `Quick test_address_different_bases;
      ] );
    ( "deps",
      [
        Alcotest.test_case "register dependences" `Quick test_deps_register;
        Alcotest.test_case "memory ordering" `Quick test_deps_memory_ordering;
        Alcotest.test_case "bundle placement" `Quick test_bundle_placement;
        Alcotest.test_case "bundle blocked one way" `Quick test_bundle_blocked;
        Alcotest.test_case "bundle impossible" `Quick test_bundle_impossible;
        Alcotest.test_case "a cycle through two groups" `Quick test_deps_cycle_through_two_groups;
        Alcotest.test_case "notices inserted and removed loads" `Quick test_deps_notices_edits;
        Alcotest.test_case "notices an operand change" `Quick test_deps_notices_operand_change;
        Alcotest.test_case "ids created after a view was read" `Quick test_deps_fresh_ids;
      ] );
  ]
