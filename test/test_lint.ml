(* Tests for lib/lint: the available-expressions analysis, the checker
   suite, the translation validator, the vectorizer graph invariants,
   and the lint/validation sweep over every evaluation asset. *)

open Snslp_ir
open Snslp_lint
module Oracle = Snslp_fuzzer.Oracle
module Gen = Snslp_fuzzer.Gen
module Pipeline = Snslp_passes.Pipeline
module Config = Snslp_vectorizer.Config
module Loops = Snslp_loops.Loops

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let compile = Snslp_frontend.Frontend.compile_one

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- Dataflow: available expressions --------------------------------------- *)

let test_avail_load_killed_by_store () =
  let f = Func.create ~name:"av" ~args:[ ("A", Ty.ptr Ty.F64) ] in
  let entry = Func.add_block f "entry" in
  let b = Builder.create f ~at:entry in
  let a = Defs.Arg (Func.arg f 0) in
  let g0 = Builder.gep b a (Value.const_int 0) in
  let g0' = Builder.gep b a (Value.const_int 0) in
  let x = Builder.load b (Instr.value g0) in
  ignore (Builder.store b (Instr.value x) (Instr.value g0));
  let x' = Builder.load b (Instr.value g0) in
  ignore (Builder.store b (Instr.value x') (Instr.value g0'));
  Builder.ret b;
  let sol = Avail.compute f in
  let redundant = Avail.redundant sol f in
  (* The repeated gep is available again; the reload is not (the store
     killed every load expression). *)
  check "gep is redundant" true (List.memq g0' redundant);
  check "reload after store is not redundant" false (List.memq x' redundant)

(* --- Checkers -------------------------------------------------------------- *)

let test_check_undef () =
  let f = Func.create ~name:"ud" ~args:[ ("x", Ty.f64) ] in
  let entry = Func.add_block f "entry" in
  let b = Builder.create f ~at:entry in
  let x = Defs.Arg (Func.arg f 0) in
  ignore (Builder.add b x (Defs.Undef Ty.f64));
  Builder.ret b;
  match Checks.undef_uses f with
  | [ fd ] ->
      check "severity" true (Finding.is_error fd);
      check "where is the pretty-printed instr" true
        (String.length fd.Finding.where > 0
        && String.sub fd.Finding.where 0 1 = "%")
  | l -> Alcotest.failf "expected 1 undef finding, got %d" (List.length l)

let test_check_dead_store () =
  let f = Func.create ~name:"ds" ~args:[ ("A", Ty.ptr Ty.F64) ] in
  let entry = Func.add_block f "entry" in
  let b = Builder.create f ~at:entry in
  let a = Defs.Arg (Func.arg f 0) in
  let g0 = Builder.gep b a (Value.const_int 0) in
  let x = Builder.load b (Instr.value g0) in
  ignore (Builder.store b (Instr.value x) (Instr.value g0));
  ignore (Builder.store b (Instr.value x) (Instr.value g0));
  Builder.ret b;
  check_int "one dead store" 1 (List.length (Checks.dead_stores f));
  (* An intervening load of the same cell keeps the first store alive. *)
  let f2 = Func.create ~name:"ds2" ~args:[ ("A", Ty.ptr Ty.F64) ] in
  let entry2 = Func.add_block f2 "entry" in
  let b2 = Builder.create f2 ~at:entry2 in
  let a2 = Defs.Arg (Func.arg f2 0) in
  let h0 = Builder.gep b2 a2 (Value.const_int 0) in
  let y = Builder.load b2 (Instr.value h0) in
  ignore (Builder.store b2 (Instr.value y) (Instr.value h0));
  let y' = Builder.load b2 (Instr.value h0) in
  ignore (Builder.store b2 (Instr.value y') (Instr.value h0));
  Builder.ret b2;
  check_int "intervening load keeps it live" 0 (List.length (Checks.dead_stores f2))

let test_check_bounds () =
  let f = Func.create ~name:"ob" ~args:[ ("A", Ty.ptr Ty.F64) ] in
  let entry = Func.add_block f "entry" in
  let b = Builder.create f ~at:entry in
  let a = Defs.Arg (Func.arg f 0) in
  let gneg = Builder.gep b a (Value.const_int (-1)) in
  let x = Builder.load b (Instr.value gneg) in
  let gpast = Builder.gep b a (Value.const_int 6) in
  ignore (Builder.store b (Instr.value x) (Instr.value gpast));
  Builder.ret b;
  check_int "negative index alone" 1 (List.length (Checks.bounds f));
  check_int "negative index + past the end" 2 (List.length (Checks.bounds ~bound:4 f));
  check_int "large enough buffer" 1 (List.length (Checks.bounds ~bound:16 f))

let test_check_memory_kind () =
  let f = Func.create ~name:"mk" ~args:[ ("A", Ty.ptr Ty.F64) ] in
  let entry = Func.add_block f "entry" in
  let b = Builder.create f ~at:entry in
  let a = Defs.Arg (Func.arg f 0) in
  let g0 = Builder.gep b a (Value.const_int 0) in
  let x = Builder.load b (Instr.value g0) in
  ignore (Builder.store b (Instr.value x) (Instr.value g0));
  Builder.ret b;
  check_int "well-typed access is silent" 0 (List.length (Checks.memory_kinds f));
  (* Mutate the load into an integer access to the float buffer — the
     shape Memory.read rejects at runtime.  The store forwarding the
     retyped value is flagged too. *)
  x.Defs.ty <- Ty.i64;
  (match Checks.memory_kinds f with
  | [ fd; fd' ] ->
      check "cross-kind load is an error" true (Finding.is_error fd);
      check "cross-kind store is an error" true (Finding.is_error fd')
  | l -> Alcotest.failf "expected 2 memory-kind findings, got %d" (List.length l));
  (* A same-kind width change is only a warning. *)
  x.Defs.ty <- Ty.f32;
  match Checks.memory_kinds f with
  | fd :: rest ->
      check "width mismatch is a warning" false (Finding.is_error fd);
      check "no error among width findings" true (Finding.errors rest = [])
  | [] -> Alcotest.fail "expected width-mismatch findings"

(* --- Verifier messages carry the pretty-printed instruction ---------------- *)

let test_verifier_where_pretty () =
  let f = Func.create ~name:"vw" ~args:[ ("P", Ty.ptr Ty.I64) ] in
  let entry = Func.add_block f "entry" in
  let b = Builder.create f ~at:entry in
  let p = Defs.Arg (Func.arg f 0) in
  let x = Builder.load b p in
  Builder.ret b;
  (* Retype the load into a float read through the i64 pointer: the
     builder refuses to construct this, so mutate after the fact. *)
  x.Defs.ty <- Ty.f64;
  match Verifier.verify f with
  | [] -> Alcotest.fail "expected a verifier error"
  | e :: _ ->
      check "where is the whole instruction" true
        (String.equal e.Verifier.where (Instr.to_string x))

(* --- The translation validator --------------------------------------------- *)

let build_store_of ~name emit =
  let f =
    Func.create ~name ~args:[ ("A", Ty.ptr Ty.F64); ("B", Ty.ptr Ty.F64) ]
  in
  let entry = Func.add_block f "entry" in
  let b = Builder.create f ~at:entry in
  let a = Defs.Arg (Func.arg f 0) in
  let load_a k =
    Instr.value (Builder.load b (Instr.value (Builder.gep b a (Value.const_int k))))
  in
  let out = Builder.gep b (Defs.Arg (Func.arg f 1)) (Value.const_int 0) in
  let v = emit b load_a in
  ignore (Builder.store b v (Instr.value out));
  Builder.ret b;
  f

let test_validate_reassociation () =
  (* (a+b)+c vs (c+a)+b: same signed multiset, Valid. *)
  let pre =
    build_store_of ~name:"re1" (fun b la ->
        let x = Builder.add b (la 0) (la 1) in
        Instr.value (Builder.add b (Instr.value x) (la 2)))
  in
  let post =
    build_store_of ~name:"re2" (fun b la ->
        let x = Builder.add b (la 2) (la 0) in
        Instr.value (Builder.add b (Instr.value x) (la 1)))
  in
  match Validate.compare_funcs pre post with
  | Validate.Valid -> ()
  | v -> Alcotest.failf "expected valid, got %s" (Validate.verdict_to_string v)

let test_validate_inverse_cancellation () =
  (* a + b - b normalises to a: the inverse-element pair cancels. *)
  let pre =
    build_store_of ~name:"iv1" (fun b la ->
        let x = Builder.add b (la 0) (la 1) in
        Instr.value (Builder.sub b (Instr.value x) (la 1)))
  in
  let post = build_store_of ~name:"iv2" (fun _ la -> la 0) in
  match Validate.compare_funcs pre post with
  | Validate.Valid -> ()
  | v -> Alcotest.failf "expected valid, got %s" (Validate.verdict_to_string v)

let test_validate_mul_div_inverse () =
  (* (a*b)/b normalises to a: the multiplicative inverse pair. *)
  let pre =
    build_store_of ~name:"md1" (fun b la ->
        let x = Builder.mul b (la 0) (la 1) in
        Instr.value (Builder.div b (Instr.value x) (la 1)))
  in
  let post = build_store_of ~name:"md2" (fun _ la -> la 0) in
  match Validate.compare_funcs pre post with
  | Validate.Valid -> ()
  | v -> Alcotest.failf "expected valid, got %s" (Validate.verdict_to_string v)

let test_validate_sign_flip_mismatch () =
  let pre =
    build_store_of ~name:"sf1" (fun b la -> Instr.value (Builder.add b (la 0) (la 1)))
  in
  let post =
    build_store_of ~name:"sf2" (fun b la -> Instr.value (Builder.sub b (la 0) (la 1)))
  in
  match Validate.compare_funcs pre post with
  | Validate.Mismatch { where; _ } ->
      check "mismatch pinpoints the store" true
        (String.length where > 0 && String.sub where 0 5 = "store")
  | v -> Alcotest.failf "expected mismatch, got %s" (Validate.verdict_to_string v)

let test_validate_missing_store_mismatch () =
  let pre =
    build_store_of ~name:"ms1" (fun b la -> Instr.value (Builder.add b (la 0) (la 1)))
  in
  let post = Func.clone pre in
  (* Drop the store on the output side. *)
  Block.discard_if (Func.entry post) (fun i -> Instr.is_store i);
  match Validate.compare_funcs pre post with
  | Validate.Mismatch _ -> ()
  | v -> Alcotest.failf "expected mismatch, got %s" (Validate.verdict_to_string v)

let test_validate_loop_unknown () =
  let f = Func.create ~name:"lp" ~args:[ ("A", Ty.ptr Ty.F64); ("i", Ty.i64) ] in
  let entry = Func.add_block f "entry" in
  let body = Func.add_block f "body" in
  let b = Builder.create f ~at:entry in
  Builder.br b body;
  Builder.position b body;
  let i = Defs.Arg (Func.arg f 1) in
  let c = Builder.icmp b Defs.Lt i (Value.const_int 4) in
  Builder.cond_br b (Instr.value c) body entry;
  match Validate.compare_funcs f (Func.clone f) with
  | Validate.Unknown _ -> ()
  | v -> Alcotest.failf "expected unknown on a loop, got %s" (Validate.verdict_to_string v)

let test_validate_ifconv () =
  (* The diamond-merge path: if-conversion must validate Valid against
     the branchy original, in both paired-store and one-armed form. *)
  List.iter
    (fun src ->
      let f = compile src in
      let g = Func.clone f in
      ignore (Snslp_passes.Ifconv.run g);
      match Validate.compare_funcs f g with
      | Validate.Valid -> ()
      | v ->
          Alcotest.failf "ifconv of %s: expected valid, got %s" f.Defs.fname
            (Validate.verdict_to_string v))
    [
      {|
kernel d(double A[], double B[], long i) {
  if (i < 4) { A[i] = B[i] * 2.0; } else { A[i] = B[i] + 1.0; }
}
|};
      {|
kernel t(double A[], double B[], long i) {
  if (i < 4) { A[i] = B[i] * 2.0; }
  A[i+8] = 1.0;
}
|};
    ]

(* --- Graph invariants ------------------------------------------------------ *)

let test_invariants_on_registry_graphs () =
  List.iter
    (fun (k : Snslp_kernels.Registry.t) ->
      let f = compile k.Snslp_kernels.Registry.source in
      (* Scalar canonicalisation first, as the pipeline would. *)
      ignore (Snslp_passes.Fold.run f);
      ignore (Snslp_passes.Simplify.run f);
      ignore (Snslp_passes.Cse.run f);
      List.iter
        (fun fd -> Alcotest.failf "%s: %s" k.Snslp_kernels.Registry.name
            (Finding.to_string fd))
        (Lint.vector_invariants Config.snslp f))
    Snslp_kernels.Registry.all

(* A hand-assembled tree whose load groups close a dependence cycle
   through different lanes: [a[i+1], a[i+2]] and [b[i+1], b[i+2]] can
   each be fused, but lane 0 of each is stored to the cell lane 1 of
   the other reads.  Each node passes alone; the tree does not. *)
let test_invariants_see_cross_group_cycle () =
  let open Snslp_vectorizer in
  let f =
    compile
      {|
kernel r(double a[], double b[], double c[], long i) {
  double x0 = a[i+1];
  double y0 = b[i+1];
  b[i+2] = x0;
  a[i+2] = y0;
  double x1 = a[i+2];
  double y1 = b[i+2];
  c[i+0] = y0 - x0;
  c[i+1] = y1 - x1;
}
|}
  in
  let block = Func.entry f in
  let instrs = Block.instrs block in
  let loads = Array.of_list (List.filter Instr.is_load instrs) in
  let subs = Array.of_list (List.filter (fun i -> Instr.binop_kind i = Some Defs.Sub) instrs) in
  let stores = Array.of_list (List.filter Instr.is_store instrs) in
  let node nid scalars children =
    {
      Graph.nid;
      scalars = Array.map Instr.value scalars;
      kind = Graph.K_vec;
      children;
      vec = None;
      at_first = false;
    }
  in
  let xs = node 3 [| loads.(0); loads.(2) |] [||] in
  let ys = node 2 [| loads.(1); loads.(3) |] [||] in
  let sub = node 1 subs [| ys; xs |] in
  let root = node 0 [| stores.(2); stores.(3) |] [| sub |] in
  let claimed = Int_table.create 8 in
  List.iter
    (fun (n : Graph.node) ->
      Array.iter
        (function Defs.Instr i -> Int_table.replace claimed i.Defs.iid n | _ -> ())
        n.Graph.scalars)
    [ root; sub; ys; xs ];
  let deps = Snslp_analysis.Deps.of_block block in
  let g =
    {
      Graph.config = Config.snslp;
      func = f;
      block;
      reorder = Graph.R_chain;
      stats = None;
      deps;
      admitted = Snslp_analysis.Deps.fusion deps;
      nodes = [ xs; ys; sub; root ];
      root = Some root;
      next_id = 4;
      claimed;
      by_group = Graph.Group.create 8;
      no_remassage = Int_table.create 1;
      supernode_sizes = [];
      lookahead_cache = Lookahead.cache_create ();
    }
  in
  match Invariants.check g with
  | [ msg ] -> check "names the cycle" true (contains msg "close a dependence cycle")
  | msgs -> Alcotest.failf "expected one violation, got: %s" (String.concat "; " msgs)

(* --- Validator bounds ------------------------------------------------------ *)

(* A product of two constants is computed as the IR computes it, so
   [(1.0 - 1.0) * (1.0 - 1.5)] is -0.0.  Read as +0.0 inside a select
   atom's key, it once reordered two select terms of the generated
   kernel 7851, and every pass, fold first, read as a mismatch. *)
let test_validate_keeps_zero_sign () =
  let c x = Normal.of_lit Ty.F64 (Lit.Float x) in
  (match Normal.as_const (Normal.mul (Normal.sub (c 1.0) (c 1.0)) (Normal.sub (c 1.0) (c 1.5))) with
  | Some (Normal.C_float z) ->
      check "constant is -0.0" true (Int64.equal (Int64.bits_of_float z) (Int64.bits_of_float (-0.0)))
  | _ -> Alcotest.fail "expected a float constant");
  let f = compile (Snslp_fuzzer.Kernelc.generate ~seed:7851) in
  let pre = Func.clone f in
  ignore (Snslp_passes.Fold.run f);
  check "fold of kernel 7851 is valid" true (Validate.compare_funcs pre f = Validate.Valid)

exception Heap_limit

(* Runs [f], aborting it with [Heap_limit] at the end of the first
   major collection that finds the major heap more than [mb] MB above
   where it started. *)
let with_heap_limit ~mb f =
  Gc.compact ();
  let limit = (Gc.quick_stat ()).Gc.heap_words + (mb * 1024 * 1024 / 8) in
  let alarm =
    Gc.create_alarm (fun () -> if (Gc.quick_stat ()).Gc.heap_words > limit then raise Heap_limit)
  in
  Fun.protect ~finally:(fun () -> Gc.delete_alarm alarm) f

(* Generated kernel 486 (425 instructions) nests selects through
   sequential if/else arms over the same cells; spelled out, one of
   its atom keys is 9.9 MB, and its service cache key alone once took
   a 292 MB heap.  Keys are bounded now: the capture ends [Unknown]
   within 64 MB, and the service keys the kernel by its text. *)
let test_validate_bounds_key_size () =
  let src = Snslp_fuzzer.Kernelc.generate ~seed:486 in
  List.iter
    (fun (name, setting) ->
      match
        with_heap_limit ~mb:64 (fun () ->
            (Pipeline.run ~setting ~validate:true (compile src)).Pipeline.validation)
      with
      | Some { Pipeline.end_verdict = Validate.Unknown reason; _ } ->
          check (name ^ " names the bound") true (contains reason "normal form too large")
      | Some v ->
          Alcotest.failf "%s: expected unknown, got %s" name
            (Validate.verdict_to_string v.Pipeline.end_verdict)
      | None -> Alcotest.failf "%s: no validation record" name
      | exception Heap_limit -> Alcotest.failf "%s: heap grew past 64 MB" name)
    [ ("o3", None); ("sn-slp", Some Config.snslp) ];
  match with_heap_limit ~mb:64 (fun () -> Semhash.of_func (compile src)) with
  | Semhash.Structural _ -> ()
  | Semhash.Semantic _ -> Alcotest.fail "kernel 486 got a semantic key"
  | exception Heap_limit -> Alcotest.fail "semhash: heap grew past 64 MB"

(* Every sum holds at most [Normal.max_terms] terms; one more raises
   [Too_big].  Each add re-merges the whole term list, so without the
   cap one store of 8k loads took seconds to key; with it a long add
   chain stops at the cap, and the service keys the store by its
   text. *)
let test_normal_caps_terms () =
  let atom k = Normal.of_atom Ty.F64 (Normal.Arg k) in
  let full =
    List.fold_left (fun acc k -> Normal.add acc (atom k)) (Normal.zero Ty.F64)
      (List.init Normal.max_terms Fun.id)
  in
  check_int "a sum at the cap" Normal.max_terms (List.length full.Normal.terms);
  check "one term past the cap" true
    (match Normal.add full (atom Normal.max_terms) with
    | _ -> false
    | exception Normal.Too_big -> true);
  let src =
    "kernel s(double a[], double o[]) { o[0] = a[0]"
    ^ String.concat "" (List.init 4999 (fun k -> Printf.sprintf " + a[%d]" (k + 1)))
    ^ "; }"
  in
  match Semhash.of_func (compile src) with
  | Semhash.Structural _ -> ()
  | Semhash.Semantic _ -> Alcotest.fail "a store of 5,000 loads got a semantic key"

(* --- Lint sweep over the evaluation assets --------------------------------- *)

let test_lint_sweep_registry () =
  List.iter
    (fun (k : Snslp_kernels.Registry.t) ->
      let f = compile k.Snslp_kernels.Registry.source in
      List.iter
        (fun fd -> Alcotest.failf "%s: %s" k.Snslp_kernels.Registry.name
            (Finding.to_string fd))
        (Finding.errors (Lint.run ~bound:Oracle.buffer_size f)))
    Snslp_kernels.Registry.all

let test_lint_sweep_fullbench () =
  List.iter
    (fun (fb : Snslp_kernels.Fullbench.t) ->
      List.iter
        (fun f ->
          List.iter
            (fun fd -> Alcotest.failf "%s: %s" fb.Snslp_kernels.Fullbench.name
                (Finding.to_string fd))
            (Finding.errors (Lint.run f)))
        (Snslp_frontend.Frontend.compile (Snslp_kernels.Fullbench.source fb)))
    Snslp_kernels.Fullbench.all

(* --- The 500-seed property ------------------------------------------------- *)

let validated_settings : (string * Pipeline.setting) list =
  [
    ("o3", None);
    ("slp", Some Config.vanilla);
    ("lslp", Some Config.lslp);
    ("snslp", Some Config.snslp);
  ]

(* Generated IR is lint-clean, and every configuration's pipeline
   validates Valid or Unknown — never Mismatch — with no graph
   invariant violations. *)
let prop_generated_ir_validates =
  QCheck.Test.make ~count:500 ~name:"generated IR lints clean and validates"
    (QCheck.make (QCheck.Gen.int_bound 1_000_000))
    (fun seed ->
      let func = Gen.generate ~seed () in
      (match Finding.errors (Lint.run ~bound:Oracle.buffer_size func) with
      | [] -> ()
      | fd :: _ ->
          QCheck.Test.fail_reportf "seed %d: %s" seed (Finding.to_string fd));
      let tolerance = Gen.tolerance_for func in
      List.iter
        (fun (name, setting) ->
          let result = Pipeline.run ~setting ~validate:true ~tolerance func in
          match result.Pipeline.validation with
          | None -> QCheck.Test.fail_reportf "seed %d %s: no validation record" seed name
          | Some v ->
              List.iter
                (fun (pass, verdict) ->
                  match verdict with
                  | Validate.Mismatch { where; detail } ->
                      QCheck.Test.fail_reportf "seed %d %s pass %s: mismatch @%s: %s"
                        seed name pass where detail
                  | Validate.Valid | Validate.Unknown _ -> ())
                v.Pipeline.pass_verdicts;
              (match v.Pipeline.end_verdict with
              | Validate.Mismatch { where; detail } ->
                  QCheck.Test.fail_reportf "seed %d %s end-to-end: mismatch @%s: %s"
                    seed name where detail
              | Validate.Valid | Validate.Unknown _ -> ());
              List.iter
                (fun msg ->
                  QCheck.Test.fail_reportf "seed %d %s: graph invariant: %s" seed name msg)
                v.Pipeline.graph_findings)
        validated_settings;
      true)

(* The builder never returns a tree whose vector groups close a
   dependence cycle.  These generated functions and KernelC kernels
   hold groups that each pass alone but close a cycle together: checked
   only one at a time, they gave 14 and 30 graph findings, and the
   property above failed whenever it drew one of the seeds. *)
let test_built_trees_are_schedulable () =
  let global c =
    { c with
      Config.packing =
        Config.Global { beam = Config.default_beam; node_budget = Config.default_node_budget } }
  in
  let avx512_revec =
    { Config.snslp with
      Config.target = Snslp_costmodel.Target.avx512;
      model = Snslp_costmodel.Model.for_target Snslp_costmodel.Target.avx512;
      revec = true }
  in
  let kernelc_settings =
    validated_settings
    @ [ ("sn-slp+global", Some (global Config.snslp)); ("sn-slp@avx512+revec", Some avx512_revec) ]
  in
  let no_findings what func settings =
    List.iter
      (fun (name, setting) ->
        match (Pipeline.run ~setting ~validate:true func).Pipeline.validation with
        | None -> Alcotest.failf "%s %s: no validation record" what name
        | Some v ->
            List.iter (Alcotest.failf "%s %s: %s" what name) v.Pipeline.graph_findings)
      settings
  in
  List.iter
    (fun seed -> no_findings (Printf.sprintf "Gen seed %d" seed) (Gen.generate ~seed ()) validated_settings)
    [ 22803; 56082; 72145; 142774; 356619; 475204; 509963; 573127; 959614 ];
  List.iter
    (fun seed ->
      no_findings (Printf.sprintf "Kernelc kernel %d" seed)
        (compile (Snslp_fuzzer.Kernelc.generate ~seed))
        kernelc_settings)
    [ 1480; 2130; 2449; 3702; 3729; 4082; 4301; 4624 ]

(* --- The static side-channel of the oracle --------------------------------- *)

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

(* The PR-3 reduced-reproducer class must be caught by the *validator*
   — a static proof, independent of the interpreter diff. *)
let test_static_mismatch_on_injected_bug () =
  let func = Ir_parser.parse Test_fuzz.reduced_repro_inverse_pair in
  Fun.protect
    ~finally:(fun () -> Oracle.inject_bug := None)
    (fun () ->
      Oracle.inject_bug := Some flip_first_float_add;
      let findings = Oracle.run_case func in
      check "validator flags the injected bug statically" true
        (List.exists
           (fun (fd : Oracle.finding) ->
             match fd.Oracle.kind with Oracle.Static_mismatch _ -> true | _ -> false)
           findings);
      (* And the flag really gates the static side-channel. *)
      let without = Oracle.run_case ~validate:false func in
      check "no static findings with validation off" false
        (List.exists
           (fun (fd : Oracle.finding) ->
             match fd.Oracle.kind with Oracle.Static_mismatch _ -> true | _ -> false)
           without))

(* Clean functions produce no static findings through the oracle. *)
let test_oracle_validates_clean () =
  let func = Ir_parser.parse Test_fuzz.reduced_repro_inverse_pair in
  List.iter
    (fun fd -> Alcotest.failf "unexpected finding: %s" (Oracle.finding_to_string fd))
    (Oracle.run_case func)

(* On milc_mat_vec_site every tree is rejected, but the rejected
   Super-Node massages stay in the IR.  A float add flipped while the
   vectorizer runs must reach the [slp] verdict and the end-to-end
   one, not only a comparison made outside the pipeline. *)
let test_validate_sees_rejected_massage () =
  let k = Option.get (Snslp_kernels.Registry.find "milc_mat_vec_site") in
  let input = compile k.Snslp_kernels.Registry.source in
  let injected = ref false in
  let on_graph (g : Snslp_vectorizer.Graph.t) =
    if not !injected then begin
      flip_first_float_add g.Snslp_vectorizer.Graph.func;
      injected := true
    end
  in
  let r = Pipeline.run ~setting:(Some Config.snslp) ~validate:true ~on_graph input in
  let rep = Option.get r.Pipeline.vect_report in
  check "every tree rejected" false
    (List.exists (fun t -> t.Snslp_vectorizer.Vectorize.vectorized)
       rep.Snslp_vectorizer.Vectorize.trees);
  let is_mismatch = function Validate.Mismatch _ -> true | _ -> false in
  check "the flip is in the output" true
    (is_mismatch (Validate.compare_funcs input r.Pipeline.func));
  let v = Option.get r.Pipeline.validation in
  check "slp verdict is a mismatch" true
    (is_mismatch (List.assoc "slp" v.Pipeline.pass_verdicts));
  check "end-to-end verdict is a mismatch" true (is_mismatch v.Pipeline.end_verdict)

(* --- Loop-aware validation -------------------------------------------------- *)

let expect_valid what pre post =
  match Validate.compare_funcs pre post with
  | Validate.Valid -> ()
  | v -> Alcotest.failf "%s: expected valid, got %s" what (Validate.verdict_to_string v)

let expect_unknown what reason pre post =
  match Validate.compare_funcs pre post with
  | Validate.Unknown r when contains r reason -> ()
  | Validate.Unknown r ->
      Alcotest.failf "%s: unknown, but reason %S does not mention %S" what r reason
  | v -> Alcotest.failf "%s: expected unknown, got %s" what (Validate.verdict_to_string v)

(* A constant-trip loop executes concretely, so loop-shaped and
   straight-line renderings of the same computation — and opposite
   iteration orders — reach the same symbolic memory. *)
let test_validate_const_trip_loop_forms () =
  let rolled =
    compile
      {|
kernel r(double a[], double c[], long i) {
  for (long k = 0; k < 4; k = k + 1) { c[k] = a[k] + 1.0; }
}
|}
  in
  let unrolled =
    compile
      {|
kernel u(double a[], double c[], long i) {
  c[0] = a[0] + 1.0;
  c[1] = a[1] + 1.0;
  c[2] = a[2] + 1.0;
  c[3] = a[3] + 1.0;
}
|}
  in
  let down =
    compile
      {|
kernel d(double a[], double c[], long i) {
  for (long k = 3; k > -1; k = k - 1) { c[k] = a[k] + 1.0; }
}
|}
  in
  expect_valid "loop vs straight line" rolled unrolled;
  expect_valid "up-count vs down-count" rolled down

(* A partial unroll of a constant-trip loop leaves a rotated main
   loop (folded (iv+s)+s increments) plus an epilogue — both execute
   concretely, so every pass verdict is Valid where the digest
   fallback used to answer Unknown. *)
let test_validate_partial_unroll_valid () =
  let src =
    {|
kernel s8(double a[], double b[], double c[], long i) {
  for (long k = 0; k < 8; k = k + 1) { c[i + k] = a[i + k] * 2.0 + b[i + k]; }
}
|}
  in
  List.iter
    (fun unroll ->
      let setting = Some { Config.snslp with Config.unroll } in
      let r = Pipeline.run ~setting ~validate:true (compile src) in
      match r.Pipeline.validation with
      | None -> Alcotest.fail "no validation record"
      | Some v ->
          List.iter
            (fun (pass, verdict) ->
              match verdict with
              | Validate.Valid -> ()
              | verdict ->
                  Alcotest.failf "pass %s: %s" pass (Validate.verdict_to_string verdict))
            v.Pipeline.pass_verdicts;
          (match v.Pipeline.end_verdict with
          | Validate.Valid -> ()
          | verdict ->
              Alcotest.failf "end verdict: %s" (Validate.verdict_to_string verdict)))
    [ Config.Unroll_by 2; Config.Unroll_by 4; Config.Unroll_auto ]

(* The jammed body directly: unroll then jam, compare against the
   untouched original. *)
let test_validate_jammed_body () =
  let f =
    compile
      {|
kernel j(double a[], double c[], long i) {
  for (long k = 0; k < 6; k = k + 1) { c[k] = a[k] * 3.0; }
}
|}
  in
  let g = Func.clone f in
  ignore (Snslp_passes.Unroll.run ~policy:(Config.Unroll_by 2) g);
  let merged = Snslp_passes.Unroll_and_jam.run g in
  check "jam merged blocks" true (merged > 0);
  expect_valid "jammed partial unroll" f g

let loop_reassoc_a =
  {|
kernel f(double A[], double B[], double C[], double D[], long n) {
  for (long k = 0; k < n; k = k + 1) { A[k] = B[k] - C[k] + D[k]; }
}
|}

let loop_reassoc_b =
  {|
kernel g(double A[], double B[], double C[], double D[], long n) {
  for (long k = 0; k < n; k = k + 1) { A[k] = D[k] + B[k] - C[k]; }
}
|}

(* Symbolic trip counts switch the validator to inductive mode: one
   abstract iteration is summarised, and equal summaries prove the
   loops equivalent by induction.  Divergent summaries are
   inconclusive — Unknown, never Mismatch. *)
let test_validate_symbolic_trip_inductive () =
  expect_valid "reassociated symbolic-trip loops" (compile loop_reassoc_a)
    (compile loop_reassoc_b);
  let different =
    compile
      {|
kernel h(double A[], double B[], double C[], double D[], long n) {
  for (long k = 0; k < n; k = k + 1) { A[k] = B[k] + C[k] + D[k]; }
}
|}
  in
  expect_unknown "different symbolic loops" "loop summaries differ"
    (compile loop_reassoc_a) different;
  (* The semantic digest mirrors the verdicts: equal for the
     equivalent pair, distinct for the different one, and defined
     (Some) for all three — symbolic loops are inside the fragment
     now. *)
  let digest src = Validate.snapshot_digest (Validate.capture ~cache:(Validate.cache ()) (compile src)) in
  (match (digest loop_reassoc_a, digest loop_reassoc_b) with
  | Some d1, Some d2 -> check "equivalent loops share a digest" true (String.equal d1 d2)
  | _ -> Alcotest.fail "symbolic-trip loop fell out of the fragment");
  match
    ( digest loop_reassoc_a,
      Validate.snapshot_digest (Validate.capture ~cache:(Validate.cache ()) different) )
  with
  | Some d1, Some d3 -> check "different loops do not share" false (String.equal d1 d3)
  | _ -> Alcotest.fail "symbolic-trip loop fell out of the fragment"

(* Accessing a buffer a symbolic-trip loop wrote conflates
   iteration-entry atoms with final content, so the validator gives
   up rather than risk a false Valid. *)
let test_validate_symbolic_loop_taint () =
  let f =
    compile
      {|
kernel t(double a[], double b[], long n) {
  for (long k = 0; k < n; k = k + 1) { b[k] = a[k]; }
  b[0] = 1.0;
}
|}
  in
  expect_unknown "post-loop store to a loop-written buffer" "symbolic-trip loop" f
    (Func.clone f)

(* The Unknown reasons name the unsupported feature. *)
let test_validate_unknown_reasons () =
  (* Zero induction step: a legal KernelC loop the recognizer refuses. *)
  let spin =
    compile
      {|
kernel spin(double a[], double c[], long i) {
  for (long k = 0; k < 8; k = k + 0) { c[k] = a[k] + 1.0; }
}
|}
  in
  expect_unknown "zero step" "zero induction step" spin (Func.clone spin);
  (* Non-affine induction step: iv multiplied on the back edge. *)
  let nonaff =
    let f = Func.create ~name:"na" ~args:[ ("A", Ty.ptr Ty.F64); ("n", Ty.i64) ] in
    let entry = Func.add_block f "entry" in
    let header = Func.add_block f "header" in
    let body = Func.add_block f "body" in
    let exit = Func.add_block f "exit" in
    let b = Builder.create f ~at:entry in
    Builder.br b header;
    Builder.position b header;
    let iv =
      Builder.phi b ~preds:[| entry; body |]
        [| Value.const_int 1; Defs.Undef Ty.i64 |]
    in
    let c = Builder.icmp b Defs.Lt (Instr.value iv) (Defs.Arg (Func.arg f 1)) in
    Builder.cond_br b (Instr.value c) body exit;
    Builder.position b body;
    let g = Builder.gep b (Defs.Arg (Func.arg f 0)) (Instr.value iv) in
    ignore (Builder.store b (Value.const_float 1.0) (Instr.value g));
    let next = Builder.mul b (Instr.value iv) (Value.const_int 2) in
    Instr.set_operand iv 1 (Instr.value next);
    Builder.br b header;
    Builder.position b exit;
    Builder.ret b;
    Verifier.verify_exn f;
    f
  in
  expect_unknown "non-affine step" "non-affine induction step" nonaff (Func.clone nonaff);
  (* Multi-exit: a second way out of the loop from inside the body. *)
  let multi_exit =
    let f = Func.create ~name:"mx" ~args:[ ("A", Ty.ptr Ty.F64); ("n", Ty.i64) ] in
    let entry = Func.add_block f "entry" in
    let header = Func.add_block f "header" in
    let body = Func.add_block f "body" in
    let latch = Func.add_block f "latch" in
    let exit = Func.add_block f "exit" in
    let exit2 = Func.add_block f "exit2" in
    let b = Builder.create f ~at:entry in
    Builder.br b header;
    Builder.position b header;
    let iv =
      Builder.phi b ~preds:[| entry; latch |]
        [| Value.const_int 0; Defs.Undef Ty.i64 |]
    in
    let c = Builder.icmp b Defs.Lt (Instr.value iv) (Defs.Arg (Func.arg f 1)) in
    Builder.cond_br b (Instr.value c) body exit;
    Builder.position b body;
    let c2 = Builder.icmp b Defs.Lt (Instr.value iv) (Value.const_int 4) in
    Builder.cond_br b (Instr.value c2) latch exit2;
    Builder.position b latch;
    let next = Builder.add b (Instr.value iv) (Value.const_int 1) in
    Instr.set_operand iv 1 (Instr.value next);
    Builder.br b header;
    Builder.position b exit;
    Builder.ret b;
    Builder.position b exit2;
    Builder.ret b;
    Verifier.verify_exn f;
    f
  in
  expect_unknown "multi-exit" "multi-exit" multi_exit (Func.clone multi_exit)

(* --- The loop checkers ------------------------------------------------------ *)

let test_loop_bounds_off_by_one () =
  let f =
    compile
      {|
kernel ob(double a[], double c[], long i) {
  for (long k = 0; k < 8; k = k + 1) { c[k + 1] = a[k]; }
}
|}
  in
  (match Checks.loop_bounds ~bound:8 f (Loopdep.analyze f) with
  | [ fd ] ->
      check "is an error" true (Finding.is_error fd);
      check "named checker" true (fd.Finding.check = "loop-out-of-bounds");
      check "where names the owning loop" true (contains fd.Finding.where "(loop ");
      check "message gives the range" true (contains fd.Finding.message "[8, 9)")
  | l -> Alcotest.failf "expected 1 loop-bounds finding, got %d" (List.length l));
  check_int "large enough buffer is silent" 0
    (List.length (Checks.loop_bounds ~bound:9 f (Loopdep.analyze f)));
  (* A negative reach needs no buffer size at all. *)
  let neg =
    compile
      {|
kernel nb(double a[], double c[], long i) {
  for (long k = 0; k < 8; k = k + 1) { c[k - 1] = a[k]; }
}
|}
  in
  check_int "negative reach flagged without bound" 1
    (List.length (Checks.loop_bounds neg (Loopdep.analyze neg)))

let test_loop_dead_store_checker () =
  let f =
    compile
      {|
kernel lds(double a[], double b[], long i) {
  for (long k = 0; k < 8; k = k + 1) { b[0] = a[k]; }
}
|}
  in
  (match Checks.loop_dead_stores f (Loopdep.analyze f) with
  | [ fd ] ->
      check "is a warning" false (Finding.is_error fd);
      check "counts the wasted trips" true (contains fd.Finding.message "7 of 8 trips")
  | l -> Alcotest.failf "expected 1 loop-dead-store finding, got %d" (List.length l));
  (* A load that may observe the cell keeps the store alive. *)
  let observed =
    compile
      {|
kernel lds2(double a[], double b[], double c[], long i) {
  for (long k = 0; k < 8; k = k + 1) { b[0] = a[k]; c[k] = b[0]; }
}
|}
  in
  check_int "observed invariant store is silent" 0
    (List.length (Checks.loop_dead_stores observed (Loopdep.analyze observed)))

let test_loop_termination_checker () =
  (* k != 7 stepping by 2 from 0 never settles: provable, Error. *)
  let inf =
    compile
      {|
kernel inf(double a[], long n) {
  for (long k = 0; k != 7; k = k + 2) { a[0] = a[0] + 1.0; }
}
|}
  in
  (match Checks.loop_termination inf (Loopdep.analyze inf) with
  | [ fd ] ->
      check "provable non-termination is an error" true (Finding.is_error fd);
      check "message explains" true (contains fd.Finding.message "never settles")
  | l -> Alcotest.failf "expected 1 termination finding, got %d" (List.length l));
  (* Symbolic bound + non-monotone step: termination depends on the
     runtime value — a warning. *)
  let nm =
    compile
      {|
kernel nm(double a[], long n) {
  for (long k = 0; k != n; k = k + 2) { a[k] = 1.0; }
}
|}
  in
  (match Checks.loop_termination nm (Loopdep.analyze nm) with
  | [ fd ] ->
      check "non-monotone is a warning" false (Finding.is_error fd);
      check "message names monotonicity" true (contains fd.Finding.message "monotone")
  | l -> Alcotest.failf "expected 1 termination finding, got %d" (List.length l));
  (* A plain counted loop is silent. *)
  let ok = compile "kernel ok(double a[], long n) { for (long k = 0; k < n; k = k + 1) { a[k] = 1.0; } }" in
  check_int "monotone loop is silent" 0
    (List.length (Checks.loop_termination ok (Loopdep.analyze ok)))

(* --- Cross-iteration dependences (Loopdep) ---------------------------------- *)

let the_info f =
  match (Loopdep.analyze f).Loopdep.infos with
  | [ i ] -> i
  | l -> Alcotest.failf "expected one loop, got %d" (List.length l)

let test_loopdep_distances () =
  (* Flow: a[k+1] stored at iteration p is read as a[k] at p+1. *)
  let flow =
    compile
      {|
kernel fl(double a[], long i) {
  for (long k = 0; k < 8; k = k + 1) { a[k + 1] = a[k] * 2.0; }
}
|}
  in
  (match (the_info flow).Loopdep.deps with
  | [ d ] ->
      check "flow kind" true (d.Loopdep.kind = Loopdep.Flow);
      check_int "distance 1" 1 d.Loopdep.distance
  | l -> Alcotest.failf "expected 1 dep, got %d" (List.length l));
  (* Anti: a[k+2] read at iteration p is overwritten as a[k] at p+2. *)
  let anti =
    compile
      {|
kernel an(double a[], long i) {
  for (long k = 0; k < 8; k = k + 1) { a[k] = a[k + 2] * 1.5; }
}
|}
  in
  (match (the_info anti).Loopdep.deps with
  | [ d ] ->
      check "anti kind" true (d.Loopdep.kind = Loopdep.Anti);
      check_int "distance 2" 2 d.Loopdep.distance
  | l -> Alcotest.failf "expected 1 dep, got %d" (List.length l));
  (* Output: the same invariant cell is stored every iteration —
     carried at every distance, reported with the minimal one. *)
  let output =
    compile
      {|
kernel ou(double a[], double b[], long i) {
  for (long k = 0; k < 8; k = k + 1) { b[0] = a[k]; }
}
|}
  in
  check "output dep at distance 1" true
    (List.exists
       (fun (d : Loopdep.dep) -> d.Loopdep.kind = Loopdep.Output && d.Loopdep.distance = 1)
       (the_info output).Loopdep.deps)

let test_loopdep_parallel () =
  let f =
    compile
      {|
kernel pa(double a[], double b[], double c[], long i) {
  for (long k = 0; k < 8; k = k + 1) { c[k] = a[k] + b[k]; }
}
|}
  in
  let info = the_info f in
  check "analyzed" true info.Loopdep.analyzed;
  check "no carried dependence" true (info.Loopdep.deps = []);
  check "parallel" true info.Loopdep.parallel;
  (* The finding view: dependences surface as Info findings naming
     the owning loop. *)
  check_int "no dependence findings" 0
    (List.length (Checks.loop_dependences f (Loopdep.analyze f)));
  let flow =
    compile
      {|
kernel fl2(double a[], long i) {
  for (long k = 0; k < 8; k = k + 1) { a[k + 1] = a[k] * 2.0; }
}
|}
  in
  match Checks.loop_dependences flow (Loopdep.analyze flow) with
  | [ fd ] ->
      check "info severity" false (Finding.is_error fd);
      check "where names the loop" true (contains fd.Finding.where "(loop ");
      check "message carries kind and distance" true
        (contains fd.Finding.message "flow dependence, distance 1")
  | l -> Alcotest.failf "expected 1 dependence finding, got %d" (List.length l)

(* --- The 500-seed loopy property --------------------------------------------- *)

(* Aggregated by the property below, asserted by
   [test_loopy_valid_rate] which runs after it. *)
let loopy_counted_total = ref 0
let loopy_counted_valid = ref 0

let all_loops_const_counted (f : Defs.func) =
  match f.Defs.blocks with
  | [] | [ _ ] -> false
  | _ ->
      let forest = Loops.analyze f in
      forest.Loops.loops <> []
      && List.for_all
           (fun l ->
             match Loops.as_counted l with
             | Some c -> Loops.trip_count c <> None
             | None -> false)
           forest.Loops.loops

(* Loopy generated IR through every validated configuration: the
   validator never reports Mismatch, and on functions whose loops are
   all counted with constant trips the end-to-end verdict is Valid —
   the rate is checked against the 0.9 floor below. *)
let prop_loopy_ir_validates =
  QCheck.Test.make ~count:500 ~name:"loopy IR validates without mismatch"
    (QCheck.make (QCheck.Gen.int_bound 1_000_000))
    (fun seed ->
      let func = Gen.generate ~profile:Gen.loopy_profile ~seed () in
      let tolerance = Gen.tolerance_for func in
      let counted = all_loops_const_counted func in
      if counted then incr loopy_counted_total;
      let all_valid = ref true in
      List.iter
        (fun (name, setting) ->
          let result = Pipeline.run ~setting ~validate:true ~tolerance func in
          match result.Pipeline.validation with
          | None -> QCheck.Test.fail_reportf "seed %d %s: no validation record" seed name
          | Some v ->
              List.iter
                (fun (pass, verdict) ->
                  match verdict with
                  | Validate.Mismatch { where; detail } ->
                      QCheck.Test.fail_reportf "seed %d %s pass %s: mismatch @%s: %s"
                        seed name pass where detail
                  | Validate.Valid | Validate.Unknown _ -> ())
                v.Pipeline.pass_verdicts;
              (match v.Pipeline.end_verdict with
              | Validate.Mismatch { where; detail } ->
                  QCheck.Test.fail_reportf "seed %d %s end-to-end: mismatch @%s: %s"
                    seed name where detail
              | Validate.Valid -> ()
              | Validate.Unknown _ -> all_valid := false))
        validated_settings;
      if counted && !all_valid then incr loopy_counted_valid;
      true)

let test_loopy_valid_rate () =
  if !loopy_counted_total = 0 then
    Alcotest.fail "the loopy validation property produced no counted-loop cases"
  else begin
    let rate = float_of_int !loopy_counted_valid /. float_of_int !loopy_counted_total in
    if rate < 0.9 then
      Alcotest.failf "counted-loop valid rate %.3f below the 0.9 floor (%d/%d)" rate
        !loopy_counted_valid !loopy_counted_total
  end

let suite =
  [
    ( "lint",
      [
        Alcotest.test_case "available exprs killed by store" `Quick
          test_avail_load_killed_by_store;
        Alcotest.test_case "check: use of undef" `Quick test_check_undef;
        Alcotest.test_case "check: dead store" `Quick test_check_dead_store;
        Alcotest.test_case "check: out of bounds" `Quick test_check_bounds;
        Alcotest.test_case "check: memory kinds" `Quick test_check_memory_kind;
        Alcotest.test_case "verifier errors carry the instruction" `Quick
          test_verifier_where_pretty;
        Alcotest.test_case "validate: reassociation" `Quick test_validate_reassociation;
        Alcotest.test_case "validate: additive inverse pair" `Quick
          test_validate_inverse_cancellation;
        Alcotest.test_case "validate: multiplicative inverse pair" `Quick
          test_validate_mul_div_inverse;
        Alcotest.test_case "validate: sign flip is a mismatch" `Quick
          test_validate_sign_flip_mismatch;
        Alcotest.test_case "validate: dropped store is a mismatch" `Quick
          test_validate_missing_store_mismatch;
        Alcotest.test_case "validate: loops are unknown" `Quick test_validate_loop_unknown;
        Alcotest.test_case "validate: if-conversion" `Quick test_validate_ifconv;
        Alcotest.test_case "validate: const-trip loop forms" `Quick
          test_validate_const_trip_loop_forms;
        Alcotest.test_case "validate: partial unroll valid" `Quick
          test_validate_partial_unroll_valid;
        Alcotest.test_case "validate: jammed body" `Quick test_validate_jammed_body;
        Alcotest.test_case "validate: symbolic trip inductive" `Quick
          test_validate_symbolic_trip_inductive;
        Alcotest.test_case "validate: symbolic loop taint" `Quick
          test_validate_symbolic_loop_taint;
        Alcotest.test_case "validate: unknown reasons are specific" `Quick
          test_validate_unknown_reasons;
        Alcotest.test_case "check: loop bounds off-by-one" `Quick
          test_loop_bounds_off_by_one;
        Alcotest.test_case "check: loop dead store" `Quick test_loop_dead_store_checker;
        Alcotest.test_case "check: loop termination" `Quick test_loop_termination_checker;
        Alcotest.test_case "loopdep: distances" `Quick test_loopdep_distances;
        Alcotest.test_case "loopdep: parallel loop" `Quick test_loopdep_parallel;
        Alcotest.test_case "graph invariants hold on registry kernels" `Quick
          test_invariants_on_registry_graphs;
        Alcotest.test_case "graph invariants see a cross-group cycle" `Quick
          test_invariants_see_cross_group_cycle;
        Alcotest.test_case "validate: constant products keep the sign of zero" `Quick
          test_validate_keeps_zero_sign;
        Alcotest.test_case "validate: normal-form keys are bounded" `Quick
          test_validate_bounds_key_size;
        Alcotest.test_case "validate: sums are capped at max_terms" `Quick test_normal_caps_terms;
        Alcotest.test_case "lint sweep: registry" `Quick test_lint_sweep_registry;
        Alcotest.test_case "lint sweep: fullbench" `Slow test_lint_sweep_fullbench;
        QCheck_alcotest.to_alcotest prop_generated_ir_validates;
        Alcotest.test_case "built trees never close a dependence cycle" `Quick
          test_built_trees_are_schedulable;
        QCheck_alcotest.to_alcotest prop_loopy_ir_validates;
        Alcotest.test_case "loopy counted valid rate >= 0.9" `Quick test_loopy_valid_rate;
        Alcotest.test_case "oracle: static mismatch on injected bug" `Quick
          test_static_mismatch_on_injected_bug;
        Alcotest.test_case "validate: rejected massage is checked" `Quick
          test_validate_sees_rejected_massage;
        Alcotest.test_case "oracle: clean case stays clean" `Quick
          test_oracle_validates_clean;
      ] );
  ]
