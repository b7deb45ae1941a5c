(* Global pack selection (Packing + Vectorize.run_global):
   - every trial graph the enumerator builds satisfies the PR-5
     structural invariants;
   - beam 1 disables the search entirely and is bit-identical to the
     greedy path;
   - the solver prefers a compatible subset over the greedy-order
     first pick when the subset is cheaper (the point of the search);
   - end to end, the global pick is never statically worse than
     greedy, on the registry and on fuzz-generated functions;
   - the three registry kernels built around greedy's blind spots are
     strict wins. *)

open Snslp_ir
open Snslp_vectorizer
module Pipeline = Snslp_passes.Pipeline
module Gen = Snslp_fuzzer.Gen
module Registry = Snslp_kernels.Registry

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let global ?(beam = Config.default_beam) ?(node_budget = Config.default_node_budget) () =
  { Config.snslp with Config.packing = Config.Global { beam; node_budget } }

let compile_kernel (k : Registry.t) = Snslp_frontend.Frontend.compile_one k.Registry.source

let fuzz_funcs = List.init 40 (fun k -> Gen.generate ~seed:(1000 + (37 * k)) ())

(* --- Enumerator legality ------------------------------------------------- *)

(* Every candidate's trial graph must pass the independent structural
   re-derivation — the enumerator explores strictly more graphs than
   greedy ever builds (shifted windows, exhaustive reorders), and all
   of them must be legal. *)
let test_enumerator_invariants () =
  let funcs = List.map compile_kernel Registry.all @ fuzz_funcs in
  let graphs = ref 0 in
  List.iter
    (fun f ->
      let f = Func.clone f in
      Packing.enumerate
        ~on_graph:(fun g ->
          incr graphs;
          match Invariants.check g with
          | [] -> ()
          | vs ->
              Alcotest.failf "@%s: trial graph violates invariants: %s" f.Defs.fname
                (String.concat "; " vs))
        ~node_budget:0 (global ()) f
      |> ignore)
    funcs;
  check "enumerated something" true (!graphs > 50)

(* --- Beam 1 is greedy ----------------------------------------------------- *)

let run_packing packing f =
  let setting = Some { Config.snslp with Config.packing } in
  (Pipeline.run ~setting (Func.clone f)).Pipeline.func |> Printer.func_to_string

let test_beam1_is_greedy () =
  List.iter
    (fun f ->
      check_str
        (Printf.sprintf "@%s beam-1 = greedy" f.Defs.fname)
        (run_packing Config.Greedy f)
        (run_packing (Config.Global { beam = 1; node_budget = 0 }) f))
    (List.map compile_kernel Registry.all @ fuzz_funcs)

(* --- The solver beats the greedy-order pick ------------------------------- *)

(* Three synthetic candidates in greedy preference order: the first
   claims everything and saves 5; the pair behind it is compatible
   and saves 8 together.  A greedy-order subset keeps only the first;
   the solver must return the pair as its best plan. *)
let cand cid est_cost claims =
  {
    Packing.cid;
    bid = 0;
    seed_iids = [];
    width = 2;
    reorder = Graph.R_chain;
    est_cost;
    claims;
  }

let test_solver_beats_greedy_order () =
  let cands = [ cand 0 (-5.0) [ 1; 2; 3; 4 ]; cand 1 (-4.0) [ 1; 2 ]; cand 2 (-4.0) [ 3; 4 ] ] in
  match Packing.solve ~beam:8 cands with
  | best :: _ ->
      let cost = List.fold_left (fun a (c : Packing.candidate) -> a +. c.Packing.est_cost) 0.0 best in
      Alcotest.(check (float 1e-9)) "best plan cost" (-8.0) cost;
      Alcotest.(check (list int)) "best plan picks the pair" [ 1; 2 ]
        (List.map (fun (c : Packing.candidate) -> c.Packing.cid) best)
  | [] -> Alcotest.fail "solver returned no plans"

(* Beam truncation and the bound must never yield a plan worse than
   the empty one, at any beam. *)
let test_solver_never_positive () =
  let cands =
    List.init 12 (fun k -> cand k (if k mod 3 = 0 then -2.0 else -1.0) [ k; k + 100 ])
  in
  List.iter
    (fun beam ->
      List.iter
        (fun plan ->
          let cost =
            List.fold_left (fun a (c : Packing.candidate) -> a +. c.Packing.est_cost) 0.0 plan
          in
          check (Printf.sprintf "beam %d plan negative" beam) true (cost < 0.0))
        (Packing.solve ~beam cands))
    [ 2; 3; 8; 64 ]

(* --- Global never statically worse; engineered kernels strictly win ------- *)

let static_of packing f =
  let config = { Config.snslp with Config.packing } in
  let r = Pipeline.run ~setting:(Some config) (Func.clone f) in
  Packing.static_cost config r.Pipeline.func

let test_global_never_worse () =
  List.iter
    (fun f ->
      let greedy = static_of Config.Greedy f in
      let glob =
        static_of
          (Config.Global
             { beam = Config.default_beam; node_budget = Config.default_node_budget })
          f
      in
      if glob > greedy +. 1e-6 then
        Alcotest.failf "@%s: global static cost %.3f > greedy %.3f" f.Defs.fname glob
          greedy)
    (List.map compile_kernel Registry.all @ fuzz_funcs)

let test_engineered_kernels_win () =
  List.iter
    (fun name ->
      let k = Option.get (Registry.find name) in
      let f = compile_kernel k in
      let greedy = static_of Config.Greedy f in
      let glob =
        static_of
          (Config.Global
             { beam = Config.default_beam; node_budget = Config.default_node_budget })
          f
      in
      if not (glob < greedy -. 1e-6) then
        Alcotest.failf "%s: expected a strict global win, got global %.3f vs greedy %.3f"
          name glob greedy)
    [ "lbm_stream"; "leslie_flux"; "calculix_blend" ]

(* --- A plan that repeats greedy is not replayed ---------------------------- *)

(* On motiv_leaf_x4 the best plan makes exactly the greedy run's seed
   attempts, so the portfolio scores it as the greedy result instead
   of compiling it again: the graphs offered to [on_graph] are the
   greedy run's plus the enumerator's, and no replay's.  The output
   and the plan count are those of a run that replayed it. *)
let test_greedy_plan_not_replayed () =
  let f = compile_kernel (Option.get (Registry.find "motiv_leaf_x4")) in
  let count run =
    let n = ref 0 in
    let r = run ~on_graph:(fun _ -> incr n) in
    (!n, r)
  in
  let greedy_graphs, greedy_rep =
    let g = Func.clone f in
    count (fun ~on_graph -> Vectorize.run ~on_graph Config.snslp g)
  in
  let enum_graphs, _ =
    count (fun ~on_graph -> Packing.enumerate ~on_graph ~node_budget:0 (global ()) (Func.clone f))
  in
  let global_graphs, global_rep =
    let g = Func.clone f in
    count (fun ~on_graph -> Vectorize.run ~on_graph (global ()) g)
  in
  check "greedy built graphs" true (greedy_graphs > 0);
  Alcotest.(check int) "graphs: greedy + enumerator only" (greedy_graphs + enum_graphs) global_graphs;
  Alcotest.(check int) "plans still counted" 2 global_rep.Vectorize.stats.Stats.pack_plans;
  check "same decisions as greedy" true
    (List.map (fun (t : Vectorize.tree_report) -> (t.Vectorize.seed, t.Vectorize.vectorized))
       global_rep.Vectorize.trees
    = List.map (fun (t : Vectorize.tree_report) -> (t.Vectorize.seed, t.Vectorize.vectorized))
        greedy_rep.Vectorize.trees);
  check_str "output equals greedy's" (run_packing Config.Greedy f)
    (run_packing (Config.Global { beam = Config.default_beam; node_budget = Config.default_node_budget }) f)

let suite =
  [
    ( "packing",
      [
        Alcotest.test_case "enumerated trial graphs satisfy invariants" `Quick
          test_enumerator_invariants;
        Alcotest.test_case "beam 1 is bit-identical to greedy" `Quick test_beam1_is_greedy;
        Alcotest.test_case "a plan repeating greedy is not replayed" `Quick
          test_greedy_plan_not_replayed;
        Alcotest.test_case "solver beats the greedy-order pick" `Quick
          test_solver_beats_greedy_order;
        Alcotest.test_case "solver plans always beat the empty plan" `Quick
          test_solver_never_positive;
        Alcotest.test_case "global never statically worse (registry + fuzz)" `Quick
          test_global_never_worse;
        Alcotest.test_case "engineered registry kernels strictly win" `Quick
          test_engineered_kernels_win;
      ] );
  ]
