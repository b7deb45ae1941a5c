(* Vectorizer tests: seeds, look-ahead scoring, chain discovery and
   APOs, Super-Node legality/reordering, graph shapes, the paper's
   exact cost numbers, and code generation. *)

open Snslp_ir
open Snslp_vectorizer
open Snslp_passes

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_f = Alcotest.(check (float 1e-9))

let compile src = Snslp_frontend.Frontend.compile_one src

(* A float binop whose first operand is itself a binop — the root of a
   chain, as opposed to index arithmetic or the deepest operator. *)
let find_chain_root ?(kind : Defs.binop option) f =
  List.find
    (fun (j : Defs.instr) ->
      Instr.is_binop j
      && Ty.is_float j.Defs.ty
      && (match kind with Some k -> Instr.binop_kind j = Some k | None -> true)
      && (match j.Defs.ops.(0) with Defs.Instr k -> Instr.is_binop k | _ -> false))
    (Block.instrs (Func.entry f))

(* The frontend output canonicalised by the scalar pre-passes, the
   state SLP actually sees. *)
let canonical src =
  let result = Pipeline.run ~setting:None (compile src) in
  result.Pipeline.func

let entry_of f = Func.entry f

(* --- Seeds --------------------------------------------------------------- *)

let lanes_for = Snslp_costmodel.Target.lanes_for Snslp_costmodel.Target.sse

let test_seeds_adjacent_stores () =
  let f =
    canonical
      {|
kernel s(double A[], double B[], long i) {
  A[i+0] = 1.0;
  A[i+1] = 2.0;
  B[i+0] = 3.0;
  B[i+7] = 4.0;
}
|}
  in
  let seeds = Seeds.collect (entry_of f) ~lanes_for in
  check_int "one full-width group" 1 (List.length seeds);
  check_int "group width" 2 (List.length (List.hd seeds))

let test_seeds_runs_are_chunked () =
  let f =
    canonical
      {|
kernel s(double A[], long i) {
  A[i+0] = 1.0;
  A[i+1] = 2.0;
  A[i+2] = 3.0;
  A[i+3] = 4.0;
  A[i+4] = 5.0;
}
|}
  in
  let seeds = Seeds.collect (entry_of f) ~lanes_for in
  (* Five consecutive f64 stores, width 2: two full groups. *)
  check_int "two groups" 2 (List.length seeds)

let test_seeds_respect_element_width () =
  let f =
    canonical
      {|
kernel s(float A[], long i) {
  A[i+0] = 1.0;
  A[i+1] = 2.0;
}
|}
  in
  (* f32 on SSE needs 4 lanes; a run of 2 yields no seed. *)
  check_int "no seed" 0 (List.length (Seeds.collect (entry_of f) ~lanes_for))

let test_seeds_gap_splits_run () =
  let f =
    canonical
      {|
kernel s(double A[], long i) {
  A[i+0] = 1.0;
  A[i+2] = 2.0;
  A[i+3] = 3.0;
}
|}
  in
  let seeds = Seeds.collect (entry_of f) ~lanes_for in
  check_int "one group from the second run" 1 (List.length seeds)

(* One line per block, its store runs from [Seeds.runs] as store ids,
   over the registry, Fullbench and 300 generated functions of each
   profile, at frontend output and after fold, simplify and cse.  The
   value was captured before seed collection moved onto the address
   classes of [Address]. *)
let golden_seed_runs_md5 = "4e44df68897fdc6456566670960996ce"

let test_golden_seed_runs () =
  let gen profile seed = Snslp_fuzzer.Gen.generate ~profile ~seed () in
  let funcs =
    List.map (fun (k : Snslp_kernels.Registry.t) -> compile k.Snslp_kernels.Registry.source)
      Snslp_kernels.Registry.all
    @ List.map (fun u -> compile (Snslp_kernels.Fullbench.source u)) Snslp_kernels.Fullbench.all
    @ List.init 300 (gen Snslp_fuzzer.Gen.default_profile)
    @ List.init 300 (gen Snslp_fuzzer.Gen.loopy_profile)
  in
  let buf = Buffer.create (1 lsl 16) in
  let record (f : Defs.func) =
    Printf.bprintf buf "%s\n" f.Defs.fname;
    List.iter
      (fun (b : Defs.block) ->
        Buffer.add_string buf b.Defs.bname;
        List.iter
          (fun run ->
            Printf.bprintf buf " [%s]"
              (String.concat "," (List.map (fun (i : Defs.instr) -> string_of_int i.Defs.iid) run)))
          (Seeds.runs b);
        Buffer.add_char buf '\n')
      (Func.blocks f)
  in
  List.iter
    (fun f ->
      record f;
      ignore (Fold.run f);
      ignore (Simplify.run f);
      ignore (Cse.run f);
      record f)
    funcs;
  Alcotest.(check string) "store runs per block" golden_seed_runs_md5
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* --- Look-ahead ----------------------------------------------------------- *)

let test_lookahead_scores () =
  let f =
    canonical
      {|
kernel la(double A[], double B[], double C[], long i) {
  A[i+0] = B[i+0] * C[i+0] + B[i+1];
  A[i+1] = B[i+1] * C[i+1] + B[i+0];
}
|}
  in
  (* Loads of B, ordered by offset. *)
  let loads =
    List.filter
      (fun (j : Defs.instr) ->
        Instr.is_load j
        &&
        match Snslp_analysis.Address.of_instr j with
        | Some a -> (
            match a.Snslp_analysis.Address.base with
            | Defs.Arg g -> g.Defs.arg_pos = 1
            | _ -> false)
        | None -> false)
      (Block.instrs (entry_of f))
    |> List.sort (fun a b ->
           let off j =
             (Option.get (Snslp_analysis.Address.of_instr j)).Snslp_analysis.Address.index
               .Snslp_analysis.Affine.const
           in
           Int.compare (off a) (off b))
  in
  let muls =
    List.filter (fun j -> Instr.binop_kind j = Some Defs.Mul) (Block.instrs (entry_of f))
  in
  (match loads with
  | b0 :: b1 :: _ ->
      check_int "consecutive loads" 4
        (Lookahead.score ~depth:0 (Instr.value b0) (Instr.value b1));
      check_int "reversed loads" 1
        (Lookahead.score ~depth:0 (Instr.value b1) (Instr.value b0));
      check_int "splat" 3 (Lookahead.score ~depth:0 (Instr.value b0) (Instr.value b0))
  | _ -> Alcotest.fail "loads not found");
  (match muls with
  | [ m0; m1 ] ->
      let shallow = Lookahead.score ~depth:0 (Instr.value m0) (Instr.value m1) in
      let deep = Lookahead.score ~depth:2 (Instr.value m0) (Instr.value m1) in
      check_int "same opcode shallow" 2 shallow;
      check "look-ahead sees operands" true (deep > shallow)
  | _ -> Alcotest.fail "muls not found");
  check_int "constants pair" 2
    (Lookahead.score ~depth:0 (Value.const_float 1.0) (Value.const_float 2.0));
  check_int "mismatch fails" 0
    (Lookahead.score ~depth:0 (Value.const_float 1.0)
       (Instr.value (List.hd loads)))

(* --- Chains and APOs ------------------------------------------------------- *)

(* Chain of A[i] = B[i] - C[i] + D[i] has trunk 2 and leaves B+ C- D+. *)
let test_chain_discovery () =
  let f = canonical "kernel c(double A[], double B[], double C[], double D[], long i) { A[i] = B[i] - C[i] + D[i]; }" in
  let root =
    List.find (fun j -> Instr.binop_kind j = Some Defs.Add) (Block.instrs (entry_of f))
  in
  match Chain.discover Config.snslp f root with
  | None -> Alcotest.fail "chain not discovered"
  | Some chain ->
      check_int "trunk size" 2 (Chain.size chain);
      check_int "leaves" 3 (Array.length chain.Chain.leaves);
      let apos = Array.map (fun (l : Chain.leaf) -> l.Chain.lapo) chain.Chain.leaves in
      check "APOs are + - +" true (apos = [| Apo.Plus; Apo.Minus; Apo.Plus |]);
      check "canonical left-leaning" true (Chain.is_canonical chain)

(* A - (B + C): right-subtree flips APOs (paper Fig. 4 rule). *)
let test_apo_right_subtree () =
  let f = canonical "kernel c(double A[], double B[], double C[], double D[], long i) { A[i] = B[i] - (C[i] + D[i]); }" in
  let root =
    List.find (fun j -> Instr.binop_kind j = Some Defs.Sub) (Block.instrs (entry_of f))
  in
  match Chain.discover Config.snslp f root with
  | None -> Alcotest.fail "chain not discovered"
  | Some chain ->
      let apos = Array.map (fun (l : Chain.leaf) -> l.Chain.lapo) chain.Chain.leaves in
      check "APOs are + - -" true (apos = [| Apo.Plus; Apo.Minus; Apo.Minus |]);
      check "not canonical (right subtree)" false (Chain.is_canonical chain)

(* Nested inverse: A - (B - C) gives C a Plus APO (double flip). *)
let test_apo_double_flip () =
  let f = canonical "kernel c(double A[], double B[], double C[], double D[], long i) { A[i] = B[i] - (C[i] - D[i]); }" in
  let root =
    List.find
      (fun (j : Defs.instr) ->
        Instr.binop_kind j = Some Defs.Sub
        && match j.Defs.ops.(1) with Defs.Instr k -> Instr.is_binop k | _ -> false)
      (Block.instrs (entry_of f))
  in
  match Chain.discover Config.snslp f root with
  | None -> Alcotest.fail "chain not discovered"
  | Some chain ->
      let apos = Array.map (fun (l : Chain.leaf) -> l.Chain.lapo) chain.Chain.leaves in
      check "APOs are + - +" true (apos = [| Apo.Plus; Apo.Minus; Apo.Plus |])

let test_apo_muldiv () =
  let f = canonical "kernel c(double A[], double B[], double C[], double D[], long i) { A[i] = B[i] / (C[i] * D[i]); }" in
  let root =
    List.find (fun j -> Instr.binop_kind j = Some Defs.Div) (Block.instrs (entry_of f))
  in
  match Chain.discover Config.snslp f root with
  | None -> Alcotest.fail "mul/div chain not discovered"
  | Some chain ->
      check "family" true (chain.Chain.fam = Family.Mul_div);
      let apos = Array.map (fun (l : Chain.leaf) -> l.Chain.lapo) chain.Chain.leaves in
      check "reciprocal APOs" true (apos = [| Apo.Plus; Apo.Minus; Apo.Minus |])

let test_lslp_chain_rejects_inverse () =
  let f = canonical "kernel c(double A[], double B[], double C[], double D[], long i) { A[i] = B[i] - C[i] + D[i]; }" in
  let root =
    List.find (fun j -> Instr.binop_kind j = Some Defs.Add) (Block.instrs (entry_of f))
  in
  (* In LSLP mode the sub interrupts the chain: only one trunk op
     remains, below the minimum size. *)
  check "no Multi-Node across a sub" true (Chain.discover Config.lslp f root = None);
  (* But a pure add chain is a Multi-Node. *)
  let g = canonical "kernel c(double A[], double B[], double C[], double D[], long i) { A[i] = B[i] + C[i] + D[i]; }" in
  let root = find_chain_root ~kind:Defs.Add g in
  check "Multi-Node on pure adds" true (Chain.discover Config.lslp g root <> None)

let test_vanilla_never_chains () =
  let f = canonical "kernel c(double A[], double B[], double C[], double D[], long i) { A[i] = B[i] + C[i] + D[i]; }" in
  let root = find_chain_root ~kind:Defs.Add f in
  check "vanilla has no chains" true (Chain.discover Config.vanilla f root = None)

let test_chain_multi_use_interrupts () =
  (* t is used twice, so it cannot be an interior trunk node. *)
  let f =
    canonical
      {|
kernel c(double A[], double B[], double C[], double D[], long i) {
  double t = B[i] + C[i];
  A[i] = t + D[i];
  A[i+4] = t;
}
|}
  in
  let root =
    List.find
      (fun j ->
        Instr.binop_kind j = Some Defs.Add
        && (match j.Defs.ops.(0) with Defs.Instr k -> Instr.is_binop k | _ -> false))
      (Block.instrs (entry_of f))
  in
  check "multi-use stops the chain" true (Chain.discover Config.snslp f root = None)

let test_max_chain_cap () =
  let terms = List.init 20 (fun k -> Printf.sprintf "B[i+%d]" k) in
  let expr = String.concat " + " terms in
  let src =
    Printf.sprintf "kernel c(double A[], double B[], long i) { A[i] = %s; }" expr
  in
  let f = canonical src in
  let root =
    List.find
      (fun (j : Defs.instr) ->
        Instr.is_binop j
        && Ty.is_float j.Defs.ty
        && not
             (List.exists (fun (u, _) -> Instr.is_binop u) (Func.uses_of f (Instr.value j))))
      (Block.instrs (entry_of f))
  in
  match Chain.discover Config.snslp f root with
  | None -> Alcotest.fail "capped chain should still form"
  | Some chain -> Alcotest.(check int) "cap reached" Chain.max_trunk (Chain.size chain)

(* --- Paper cost numbers ---------------------------------------------------- *)

let vect_cost setting src =
  let f = compile src in
  let result = Pipeline.run ~setting:(Some setting) f in
  match result.Pipeline.vect_report with
  | Some { Vectorize.trees = [ t ]; _ } -> t.Vectorize.cost.Cost.total
  | _ -> Alcotest.fail "expected exactly one SLP tree"

let motiv_leaf_src = (Option.get (Snslp_kernels.Registry.find "motiv_leaf")).Snslp_kernels.Registry.source
let motiv_trunk_src = (Option.get (Snslp_kernels.Registry.find "motiv_trunk")).Snslp_kernels.Registry.source

let test_fig2_costs () =
  (* Paper Fig. 2: vanilla SLP total cost 0 (not profitable); SN-SLP
     -6 (fully vectorized). LSLP behaves like vanilla here. *)
  check_f "SLP cost" 0.0 (vect_cost Config.vanilla motiv_leaf_src);
  check_f "LSLP cost" 0.0 (vect_cost Config.lslp motiv_leaf_src);
  check_f "SN-SLP cost" (-6.0) (vect_cost Config.snslp motiv_leaf_src)

let test_fig3_costs () =
  (* Paper Fig. 3: SLP +4; SN-SLP -6. *)
  check_f "SLP cost" 4.0 (vect_cost Config.vanilla motiv_trunk_src);
  check_f "LSLP cost" 4.0 (vect_cost Config.lslp motiv_trunk_src);
  check_f "SN-SLP cost" (-6.0) (vect_cost Config.snslp motiv_trunk_src)

(* --- Graph shapes ----------------------------------------------------------- *)

let graph_of setting src =
  let f = compile src in
  ignore (Fold.run f);
  ignore (Simplify.run f);
  ignore (Cse.run f);
  let block = Func.entry f in
  let seeds = Seeds.collect block ~lanes_for in
  match seeds with
  | [ seed ] -> (
      match
        Graph.build ~deps:(Snslp_analysis.Deps.of_block block)
          ~cache:(Lookahead.cache_create ()) setting f block seed
      with
      | Some g -> g
      | None -> Alcotest.fail "graph not built")
  | _ -> Alcotest.fail "expected one seed"

let count_kind g p = List.length (List.filter (fun (n : Graph.node) -> p n.Graph.kind) (Graph.nodes g))

let test_graph_fig2_vanilla_shape () =
  let g = graph_of Config.vanilla motiv_leaf_src in
  check_int "six nodes" 6 (List.length (Graph.nodes g));
  check_int "two gathers" 2
    (count_kind g (function Graph.K_gather -> true | _ -> false));
  check_int "no alt nodes" 0
    (count_kind g (function Graph.K_alt _ -> true | _ -> false))

let test_graph_fig3_vanilla_has_alt () =
  let g = graph_of Config.vanilla motiv_trunk_src in
  check_int "two alternating nodes" 2
    (count_kind g (function Graph.K_alt _ -> true | _ -> false))

let test_graph_fig2_snslp_shape () =
  let g = graph_of Config.snslp motiv_leaf_src in
  check_int "six nodes" 6 (List.length (Graph.nodes g));
  check_int "no gathers" 0
    (count_kind g (function Graph.K_gather | Graph.K_splat -> true | _ -> false));
  check_int "one supernode recorded" 1 (List.length g.Graph.supernode_sizes);
  check_int "supernode size 2" 2 (List.hd g.Graph.supernode_sizes)

let test_graph_splat_detection () =
  let g =
    graph_of Config.vanilla
      {|
kernel sp(double A[], double B[], double s, long i) {
  A[i+0] = B[i+0] * s;
  A[i+1] = B[i+1] * s;
}
|}
  in
  check_int "one splat" 1 (count_kind g (function Graph.K_splat -> true | _ -> false))

(* --- Codegen ----------------------------------------------------------------- *)

let test_codegen_motiv_leaf () =
  let f = compile motiv_leaf_src in
  let result = Pipeline.run ~setting:(Some Config.snslp) f in
  let out = result.Pipeline.func in
  Verifier.verify_exn out;
  let vec_instrs =
    Func.fold_instrs (fun n j -> if Ty.is_vector j.Defs.ty then n + 1 else n) 0 out
  in
  let vstores =
    Func.fold_instrs
      (fun n j ->
        if Instr.is_store j && Ty.is_vector (Value.ty j.Defs.ops.(0)) then n + 1 else n)
      0 out
  in
  check "vector code present" true (vec_instrs >= 5);
  check_int "one vector store" 1 vstores;
  (* No scalar arithmetic remains. *)
  let scalar_fp_ops =
    Func.fold_instrs
      (fun n j -> if Instr.is_binop j && Ty.is_int j.Defs.ty = false && not (Ty.is_vector j.Defs.ty) then n + 1 else n)
      0 out
  in
  check_int "no scalar fp arithmetic left" 0 scalar_fp_ops

let test_codegen_extract_for_external_use () =
  (* B[i]+C[i] pair is vectorized; the scalar sum of lane 0 is also
     stored elsewhere, forcing an extract. *)
  let src =
    {|
kernel ext(double A[], double B[], double C[], long i) {
  double t = B[i+0] + C[i+0];
  double u = B[i+1] + C[i+1];
  A[i+0] = t;
  A[i+1] = u;
  A[i+7] = t * 2.0;
}
|}
  in
  let f = compile src in
  let result = Pipeline.run ~setting:(Some Config.snslp) f in
  let out = result.Pipeline.func in
  Verifier.verify_exn out;
  let extracts =
    Func.fold_instrs
      (fun n j -> (match j.Defs.op with Defs.Extract -> n + 1 | _ -> n))
      0 out
  in
  check "extract emitted" true (extracts >= 1)

let test_codegen_gather_inserts () =
  (* Non-adjacent loads become an insertelement chain. *)
  let src =
    {|
kernel ga(double A[], double B[], long i) {
  A[i+0] = B[2*i+0] + 1.0;
  A[i+1] = B[2*i+4] + 1.0;
}
|}
  in
  let f = compile src in
  let result = Pipeline.run ~setting:(Some Config.snslp) f in
  let out = result.Pipeline.func in
  (match result.Pipeline.vect_report with
  | Some rep ->
      if rep.Vectorize.stats.Stats.graphs_vectorized = 1 then begin
        let inserts =
          Func.fold_instrs
            (fun n j -> (match j.Defs.op with Defs.Insert -> n + 1 | _ -> n))
            0 out
        in
        check "inserts emitted" true (inserts >= 2)
      end
  | None -> Alcotest.fail "no vectorizer report")

let test_stats_accounting () =
  let f = compile motiv_leaf_src in
  let result = Pipeline.run ~setting:(Some Config.snslp) f in
  match result.Pipeline.vect_report with
  | Some rep ->
      let s = rep.Vectorize.stats in
      check_int "one graph" 1 s.Stats.graphs_built;
      check_int "one vectorized" 1 s.Stats.graphs_vectorized;
      check_int "aggregate size" 2 (Stats.aggregate_supernode_size s);
      check_f "average size" 2.0 (Stats.average_supernode_size s);
      check "scalars erased" true (s.Stats.scalars_erased >= 8);
      check "vector instrs counted" true (s.Stats.vector_instrs_emitted >= 5)
  | None -> Alcotest.fail "no vectorizer report"

let test_rejected_graph_keeps_scalar_code () =
  (* Vanilla on motiv_leaf rejects: output must stay scalar and be
     semantically identical to the input. *)
  let f = compile motiv_leaf_src in
  let result = Pipeline.run ~setting:(Some Config.vanilla) f in
  let vec_instrs =
    Func.fold_instrs
      (fun n j -> if Ty.is_vector j.Defs.ty then n + 1 else n)
      0 result.Pipeline.func
  in
  check_int "no vector instructions" 0 vec_instrs

(* --- One compile path: shared per-block state ---------------------------- *)

let kernel_source name =
  (Option.get (Snslp_kernels.Registry.find name)).Snslp_kernels.Registry.source

let global_packing =
  Config.Global { beam = Config.default_beam; node_budget = Config.default_node_budget }

(* Compile a registry kernel and return the vectorizer report. *)
let vect_report config name =
  let f = compile (kernel_source name) in
  match (Pipeline.run ~setting:(Some config) f).Pipeline.vect_report with
  | Some rep -> rep
  | None -> Alcotest.fail "no vectorizer report"

(* Look-ahead hits/misses, admission work, dependence
   builds/refreshes. *)
let counters (s : Stats.t) =
  [
    s.Stats.lookahead_hits; s.Stats.lookahead_misses; s.Stats.admit_work; s.Stats.deps_builds;
    s.Stats.deps_refreshes;
  ]

let test_greedy_source_counters () =
  (* milc_su3 is a 56-instruction kernel: one block, one store seed.
     The greedy driver shares one dependence analysis across the block
     (1 build; the reduction pass builds none), the analysis re-reads
     the block once after the massage, and the look-ahead memo serves
     8 of 63 queries.  Each vector group is admitted against the
     tree's closure: its marks, examined users and accesses, members
     and words come to 78, against 341 when each admission read the
     window of the tree so far (its matrix words and the operands and
     accesses its sweep and slides examined). *)
  let rep = vect_report Config.snslp "milc_su3" in
  Alcotest.(check (list int)) "la 8/55, admit 78, deps 1+1r" [ 8; 55; 78; 1; 1 ]
    (counters rep.Vectorize.stats)

let test_replay_source_counters () =
  (* calculix_blend under global packing: the solver's plan beats the
     greedy incumbent, so the report is the replay driver's, with the
     packing search counters added in. *)
  let global = { Config.snslp with Config.packing = global_packing } in
  let rep = vect_report global "calculix_blend" in
  let s = rep.Vectorize.stats in
  Alcotest.(check (list int)) "pack 5c/3e/1p/2r" [ 5; 3; 1; 2 ]
    [ s.Stats.pack_candidates; s.Stats.pack_expansions; s.Stats.pack_pruned; s.Stats.pack_plans ];
  Alcotest.(check (list int)) "la 24/10, admit 64, deps 1+0r" [ 24; 10; 64; 1; 0 ]
    (counters s);
  let ir config =
    Printer.func_to_string
      (Pipeline.run ~setting:(Some config) (compile (kernel_source "calculix_blend")))
        .Pipeline.func
  in
  check "a replayed plan won" false (String.equal (ir Config.snslp) (ir global))

let test_deps_builds_per_block () =
  (* At most one shared dependence analysis per block, for the seed
     driver, whatever the seed source or unroll policy; the reduction
     pass builds none. *)
  List.iter
    (fun (k : Snslp_kernels.Registry.t) ->
      List.iter
        (fun packing ->
          List.iter
            (fun unroll ->
              let config = { Config.snslp with Config.packing; unroll } in
              let r =
                Pipeline.run ~setting:(Some config) (compile k.Snslp_kernels.Registry.source)
              in
              let blocks = List.length (Func.blocks r.Pipeline.func) in
              match r.Pipeline.vect_report with
              | Some rep ->
                  let builds = rep.Vectorize.stats.Stats.deps_builds in
                  if builds > blocks then
                    Alcotest.failf "%s (%s, unroll %s): %d deps builds for %d blocks"
                      k.Snslp_kernels.Registry.name (Config.packing_to_string packing)
                      (Config.unroll_to_string unroll) builds blocks
              | None -> Alcotest.fail "no vectorizer report")
            [ Config.Unroll_auto; Config.No_unroll ])
        [ Config.Greedy; global_packing ])
    Snslp_kernels.Registry.all

(* Every entry point runs one look-ahead memo policy: one memo per
   vectorizer run.  On the largest registry kernel at depth 3, a direct
   pipeline run and the driver at one and two workers report identical
   counters, look-ahead included.  Two copies of the kernel, so both
   workers compile at jobs=2. *)
let test_one_memo_policy () =
  let module Driver = Snslp_driver.Driver in
  let setting = Some { Config.snslp with Config.lookahead_depth = 3 } in
  let f = compile (kernel_source "milc_mat_vec") in
  let funcs = [ f; f ] in
  let direct = Driver.merged_stats (List.map (fun f -> Pipeline.run ~setting f) funcs) in
  List.iter
    (fun jobs ->
      let s = Driver.merged_stats (Driver.run_all ~jobs ~setting funcs) in
      Alcotest.(check (list int))
        (Printf.sprintf "shared-state counters at jobs=%d" jobs)
        (counters direct) (counters s);
      check (Printf.sprintf "every counter at jobs=%d" jobs) true
        (Stats.equal_counters direct s))
    [ 1; 2 ]

(* Phases charge self time: [graph] excludes the [massage] and [deps]
   work nested in it, [codegen] its emit/rewire/erase/sched/cg-verify
   steps, [pack] the enumeration's phases and [reduction] its [deps].
   The phases then partition the time they cover, so on the largest
   registry kernel they sum to no more than the [slp] pass that ran
   them — global packing included, whose discarded candidates' phases
   are simply never added. *)
let test_phases_self_time () =
  List.iter
    (fun (mode, config) ->
      let r =
        Pipeline.run ~setting:(Some config) (compile (kernel_source "milc_mat_vec"))
      in
      let slp =
        (List.find (fun t -> String.equal t.Pipeline.pass "slp") r.Pipeline.timings)
          .Pipeline.seconds
      in
      let phases =
        match r.Pipeline.vect_report with
        | Some rep ->
            List.fold_left (fun acc (_, s) -> acc +. s) 0.0
              (Stats.phases_sorted rep.Vectorize.stats)
        | None -> Alcotest.fail "no vectorizer report"
      in
      if phases > slp +. 1e-6 then
        Alcotest.failf "%s: phases sum to %.1f us inside a %.1f us slp pass" mode
          (phases *. 1e6) (slp *. 1e6))
    [
      ("sn-slp", Config.snslp);
      ("sn-slp+global", { Config.snslp with Config.packing = global_packing });
    ]

(* Knobs that only check or speed up a compile are run arguments, not
   config fields, so the fingerprint cannot see them; per-pass
   verification must then leave the output alone. *)
let test_fingerprint_excludes_speed_knobs () =
  List.iter
    (fun name ->
      let f = compile (kernel_source name) in
      let ir ~verify_each =
        Printer.func_to_string
          (Pipeline.run ~setting:(Some Config.snslp) ~verify_each f).Pipeline.func
      in
      Alcotest.(check string)
        (name ^ ": verify_each leaves the output alone")
        (ir ~verify_each:false) (ir ~verify_each:true))
    [ "motiv_leaf"; "milc_su3"; "calculix_blend" ];
  Alcotest.(check bool) "modes reach the fingerprint" false
    (String.equal (Config.fingerprint Config.snslp) (Config.fingerprint Config.vanilla))

(* Graph dumps are rendered when read, after every later tree and pass
   has run; they must equal the text the graph printed when it was
   built.  Greedy runs report every graph they build, in order; a
   global run reports the graphs of its winning plan, one contiguous
   stretch of everything it built. *)
let test_graph_dumps_on_demand () =
  let module T = Snslp_costmodel.Target in
  let avx512_revec =
    {
      Config.snslp with
      Config.target = T.avx512;
      model = Snslp_costmodel.Model.for_target T.avx512;
      revec = true;
    }
  in
  let rec is_prefix xs ys =
    match (xs, ys) with
    | [], _ -> true
    | x :: xs', y :: ys' -> String.equal x y && is_prefix xs' ys'
    | _ :: _, [] -> false
  in
  let rec is_stretch xs ys =
    is_prefix xs ys || match ys with [] -> false | _ :: ys' -> is_stretch xs ys'
  in
  let trees = ref 0 in
  List.iter
    (fun (mode, config, exact) ->
      List.iter
        (fun (k : Snslp_kernels.Registry.t) ->
          let built = ref [] in
          let result =
            Pipeline.run ~setting:(Some config)
              ~on_graph:(fun g -> built := Fmt.str "%a" Graph.pp g :: !built)
              (compile k.Snslp_kernels.Registry.source)
          in
          let built = List.rev !built in
          let read =
            match result.Pipeline.vect_report with
            | Some rep -> List.map (fun t -> Lazy.force t.Vectorize.graph_dump) rep.Vectorize.trees
            | None -> []
          in
          trees := !trees + List.length read;
          let ok = if exact then read = built else is_stretch read built in
          if not ok then
            Alcotest.failf "%s under %s: a graph dump changed between build and read"
              k.Snslp_kernels.Registry.name mode)
        Snslp_kernels.Registry.all)
    [
      ("sn-slp", Config.snslp, true);
      ("sn-slp+global", { Config.snslp with Config.packing = global_packing }, false);
      ("sn-slp@avx512+revec", avx512_revec, true);
    ];
  check "graphs were dumped" true (!trees > 0)

(* --- Memory order after code motion ---------------------------------------- *)

(* Store groups placed at their first member, so a later lane moves
   above an overwrite of another lane's cell.  Ordered by placement
   rank, the first kernel's vector store would read a later lane's
   address defined below it, and the second kernel's vector load and
   overwrite would form a cycle.  The last two, reduced from random
   nested-if KernelC, have the same two shapes.  The straight-line ones
   each commit their one store group. *)
let overwrite_kernels =
  [
    ( "address below the store",
      "kernel r(double a[], double c[], long i) { a[i+3] = c[i+3]; a[i+3] = 1.0; a[i+2] = \
       c[i+2]; }",
      Some 1 );
    ( "load above the overwrite",
      "kernel r(double a[], long i) { a[i+0] = a[i+1]; a[i+0] = 1.0; a[i+1] = a[i+2]; }",
      Some 1 );
    ( "nested ifs, loop in an arm",
      "kernel r(double a[], double b[], double c[], long i) { if (b[i+0] > a[i+2]) { if \
       (a[i+3] > b[i+3]) { for (long j = 0; j < 4; j = j + 1) { a[i+j+0] = a[i+j+1] + \
       a[i+j+0]; a[i+j+0] = 1.0; } } else { for (long j = 0; j < 4; j = j + 1) { a[i+j+2] = \
       b[i+j+2] - 1.5; } } } }",
      None );
    ( "nested ifs in a loop",
      "kernel r(double a[], double b[], double c[], long i) { for (long j = 0; j < 3; j = j + \
       1) { if (a[i+j+1] == 1.0) { if (a[i+j+0] < 0.0) { a[i+j+0] = c[i+j+0] - 1.5; } else { \
       a[i+j+3] = c[i+j+3] + a[i+j+0]; a[i+j+3] = 1.0; a[i+j+2] = c[i+j+2] + c[i+j+2]; } } } }",
      None );
  ]

let overwrite_settings =
  let global =
    {
      Config.snslp with
      Config.packing =
        Config.Global { beam = Config.default_beam; node_budget = Config.default_node_budget };
    }
  in
  let avx512 = Snslp_costmodel.Target.avx512 in
  [
    ("slp", Config.vanilla);
    ("lslp", Config.lslp);
    ("sn-slp", Config.snslp);
    ("sn-slp+global", global);
    ( "sn-slp@avx512+revec",
      {
        Config.snslp with
        Config.target = avx512;
        model = Snslp_costmodel.Model.for_target avx512;
        revec = true;
      } );
  ]

(* Each kernel compiles in every setting, the validator finds no
   mismatch, and the result interprets as the o3 compile does. *)
let compiles_everywhere kernels =
  List.iter
    (fun (kernel, src, trees) ->
      let f = compile src in
      let o3 = Snslp_fuzzer.Oracle.run_memory (Pipeline.run ~setting:None f).Pipeline.func in
      List.iter
        (fun (setting, config) ->
          let what = Printf.sprintf "%s under %s" kernel setting in
          let r =
            try Pipeline.run ~setting:(Some config) f
            with e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e)
          in
          (match Snslp_lint.Validate.compare_funcs f r.Pipeline.func with
          | Snslp_lint.Validate.Mismatch { where; detail } ->
              Alcotest.failf "%s: mismatch at %s: %s" what where detail
          | Snslp_lint.Validate.Valid | Snslp_lint.Validate.Unknown _ -> ());
          check (what ^ " interprets as o3") true
            (Snslp_interp.Memory.equal o3 (Snslp_fuzzer.Oracle.run_memory r.Pipeline.func));
          match (trees, r.Pipeline.vect_report) with
          | Some n, Some rep ->
              check_int (what ^ " commits its store group") n
                rep.Vectorize.stats.Stats.graphs_vectorized
          | _ -> ())
        overwrite_settings)
    kernels

let test_overwrite_kernels () = compiles_everywhere overwrite_kernels

(* Reduced from generated KernelC: the unrolled loop's load groups
   [a[i+1], a[i+2]] and [b[i+1], b[i+2]] each pass the legality
   check, but through other lanes each depends on the other — lane 0
   of [a] feeds the if-converted store to [b[i+2]] that lane 1 of [b]
   reads, and lane 0 of [b] is stored to [a[i+2]] before lane 1 of
   [a] reads it.  Fused, they form a cycle, so the later group becomes
   a gather and the tree still commits. *)
let test_cycle_becomes_gather () =
  let src =
    "kernel r(double a[], double b[], double c[], long i) { if (c[i+0] <= a[i+1]) { b[i+2] = \
     a[i+2]; } for (long j = 0; j < 2; j = j + 1) { a[i+j+2] = b[i+j+1]; c[i+j+0] = \
     ((c[i+j+3] + b[i+j+1]) - (a[i+j+1] + a[i+j+2])); } }"
  in
  compiles_everywhere [ ("cycle through two load groups", src, None) ];
  match (Pipeline.run ~setting:(Some Config.vanilla) (compile src)).Pipeline.vect_report with
  | Some rep ->
      check_int "the c tree commits" 1 rep.Vectorize.stats.Stats.graphs_vectorized;
      check "with a gather" true (rep.Vectorize.stats.Stats.gathers >= 1)
  | None -> Alcotest.fail "no vectorizer report"

(* A deterministic growth check on the vectorizer's per-tree state:
   every word [Vectorize.run] allocates, the major heap's direct
   allocations included ({!Test_frontend.allocated_words}), may grow at
   most 2.2x per doubling.  Two shapes: [n] blocks each holding one
   two-lane store tree (behind an [if], so lowering gives each tree its
   own block), and one tree after [n] statements whose stores are
   three elements apart, so they seed nothing.  A table sized by the
   function's ids per block or per tree grows quadratically on the
   first shape. *)
let test_slp_allocation_growth () =
  let blocks n =
    let b = Buffer.create 4096 in
    Buffer.add_string b "kernel blocks(double a[], double b[], double c[], long i) {\n";
    for k = 0 to n - 1 do
      Printf.bprintf b
        "  if (c[i+%d] > 0.0) { a[i+%d] = b[i+%d] * 3.0; a[i+%d] = b[i+%d] * 3.0; }\n" k
        (2 * k) (2 * k) ((2 * k) + 1) ((2 * k) + 1)
    done;
    Buffer.add_string b "}\n";
    Buffer.contents b
  in
  let statements n =
    let b = Buffer.create 4096 in
    Buffer.add_string b "kernel stmts(double a[], double b[], double c[], double d[], long i) {\n";
    for k = 0 to n - 1 do
      Printf.bprintf b "  c[i+%d] = d[i+%d] + 1.0;\n" (3 * k) (3 * k)
    done;
    Buffer.add_string b "  a[i+0] = b[i+0] * 3.0;\n  a[i+1] = b[i+1] * 3.0;\n}\n";
    Buffer.contents b
  in
  let words shape n =
    let f = compile (shape n) in
    let rep, w = Test_frontend.allocated_words (fun () -> Vectorize.run Config.snslp f) in
    (rep, w)
  in
  List.iter
    (fun (name, shape, n) ->
      (* Warm up at the largest size: storage kept across runs grows
         here, not in a measured run. *)
      ignore (words shape (2 * n));
      let small_rep, small = words shape n in
      let _, large = words shape (2 * n) in
      check (name ^ ": trees vectorized") true
        (small_rep.Vectorize.stats.Stats.graphs_vectorized >= if name = "blocks" then n else 1);
      let ratio = large /. small in
      if ratio > 2.2 then
        Alcotest.failf "%s: allocation grew %.2fx from %d to %d (limit 2.2x)" name ratio n
          (2 * n))
    [ ("blocks", blocks, 150); ("statements", statements, 1000) ]

(* Admission work follows the tree, not its square: each group is
   admitted at the cost of what it adds to the tree's closure and of
   the users and accesses its walk examines.  Four lanes, each a sum of
   [m] products of loads, give two trees of 2m vector groups each
   under SLP, whose admissions never search and whose block is re-read
   once (after the first tree's codegen).  Every lane loads from the
   array it stores to, the first product from the very cell, so the
   walks from the load groups and the stores examine accesses of one
   class.  Each admission used to read the window of the tree so far:
   the same count, with the window's matrix words and the operands
   and accesses its sweep and slides examined, grew 7.0x and 7.4x per
   doubling from m = 16 to 64.  A Super-Node massage re-reads the
   block mid-build, and the closure is then read afresh, so under
   LSLP and SN-SLP, whose massages here grow in number with m, the
   work grows faster (3.3x from m = 32 to 64). *)
let test_admission_work_growth () =
  let kernel m =
    let b = Buffer.create 4096 in
    Buffer.add_string b "kernel sums(double a[], double c[], long i) {\n";
    for k = 0 to 3 do
      Printf.bprintf b "  a[i+%d] = %s;\n" k
        (String.concat " + "
           (List.init m (fun j -> Printf.sprintf "a[i+%d] * c[i+%d]" ((4 * j) + k) ((4 * j) + k))))
    done;
    Buffer.add_string b "}\n";
    Buffer.contents b
  in
  let work m =
    let s = (Vectorize.run Config.vanilla (compile (kernel m))).Vectorize.stats in
    Alcotest.(check int) (Printf.sprintf "m = %d: one re-read" m) 1 s.Stats.deps_refreshes;
    Alcotest.(check int) (Printf.sprintf "m = %d: nodes" m) (8 * m) s.Stats.nodes_formed;
    s.Stats.admit_work
  in
  List.iter
    (fun m ->
      let small = work m and large = work (2 * m) in
      let ratio = float_of_int large /. float_of_int small in
      if ratio > 2.2 then
        Alcotest.failf "admission work grew %.2fx from m = %d to %d (limit 2.2x)" ratio m (2 * m))
    [ 16; 32 ]

let suite =
  [
    ( "seeds",
      [
        Alcotest.test_case "adjacent stores" `Quick test_seeds_adjacent_stores;
        Alcotest.test_case "runs chunked" `Quick test_seeds_runs_are_chunked;
        Alcotest.test_case "element width" `Quick test_seeds_respect_element_width;
        Alcotest.test_case "gaps split runs" `Quick test_seeds_gap_splits_run;
        Alcotest.test_case "golden seed runs" `Quick test_golden_seed_runs;
      ] );
    ( "lookahead",
      [ Alcotest.test_case "score table" `Quick test_lookahead_scores ] );
    ( "chains",
      [
        Alcotest.test_case "discovery and APOs" `Quick test_chain_discovery;
        Alcotest.test_case "right-subtree APO flip" `Quick test_apo_right_subtree;
        Alcotest.test_case "double flip" `Quick test_apo_double_flip;
        Alcotest.test_case "mul/div family" `Quick test_apo_muldiv;
        Alcotest.test_case "LSLP rejects inverses" `Quick test_lslp_chain_rejects_inverse;
        Alcotest.test_case "vanilla never chains" `Quick test_vanilla_never_chains;
        Alcotest.test_case "multi-use interrupts" `Quick test_chain_multi_use_interrupts;
        Alcotest.test_case "max chain cap" `Quick test_max_chain_cap;
      ] );
    ( "paper-costs",
      [
        Alcotest.test_case "figure 2" `Quick test_fig2_costs;
        Alcotest.test_case "figure 3" `Quick test_fig3_costs;
      ] );
    ( "graph",
      [
        Alcotest.test_case "fig2 vanilla shape" `Quick test_graph_fig2_vanilla_shape;
        Alcotest.test_case "fig3 vanilla alt nodes" `Quick test_graph_fig3_vanilla_has_alt;
        Alcotest.test_case "fig2 sn-slp shape" `Quick test_graph_fig2_snslp_shape;
        Alcotest.test_case "splat detection" `Quick test_graph_splat_detection;
      ] );
    ( "codegen",
      [
        Alcotest.test_case "motiv_leaf vector code" `Quick test_codegen_motiv_leaf;
        Alcotest.test_case "extract for external use" `Quick
          test_codegen_extract_for_external_use;
        Alcotest.test_case "gather inserts" `Quick test_codegen_gather_inserts;
        Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
        Alcotest.test_case "rejected graphs stay scalar" `Quick
          test_rejected_graph_keeps_scalar_code;
        Alcotest.test_case "graph dumps on demand" `Quick test_graph_dumps_on_demand;
        Alcotest.test_case "memory order after an overwrite" `Quick test_overwrite_kernels;
        Alcotest.test_case "a group closing a cycle is gathered" `Quick
          test_cycle_becomes_gather;
      ] );
    ( "memoize",
      [
        Alcotest.test_case "greedy source counters" `Quick test_greedy_source_counters;
        Alcotest.test_case "replay source counters" `Quick test_replay_source_counters;
        Alcotest.test_case "deps builds per block" `Quick test_deps_builds_per_block;
        Alcotest.test_case "fingerprint excludes speed knobs" `Quick
          test_fingerprint_excludes_speed_knobs;
        Alcotest.test_case "one memo policy on every path" `Quick test_one_memo_policy;
        Alcotest.test_case "phases report self time" `Quick test_phases_self_time;
        Alcotest.test_case "slp allocation growth per doubling" `Quick
          test_slp_allocation_growth;
        Alcotest.test_case "admission work growth per doubling" `Quick
          test_admission_work_growth;
      ] );
  ]
