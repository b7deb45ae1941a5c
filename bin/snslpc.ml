(* snslpc — the KernelC compiler driver.

   Compiles a KernelC file (or a named registry kernel) through the
   mini -O3 pipeline with the selected vectorizer configuration, and
   prints the IR before/after, the vectorization decisions, the
   Multi/Super-Node statistics, and (optionally) simulated cycles.

     snslpc --kernel motiv_leaf --mode sn-slp --stats --simulate
     snslpc file.kc --mode lslp --dump-before --dump-after *)

open Cmdliner
open Snslp_ir
open Snslp_vectorizer
open Snslp_costmodel
open Snslp_passes

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let load_source file kernel =
  match (file, kernel) with
  | Some f, None -> In_channel.with_open_text f In_channel.input_all
  | None, Some k -> (
      match Snslp_kernels.Registry.find k with
      | Some k -> k.Snslp_kernels.Registry.source
      | None ->
          Fmt.epr "unknown kernel %S; available: %s@." k
            (String.concat ", "
               (List.map
                  (fun (k : Snslp_kernels.Registry.t) -> k.Snslp_kernels.Registry.name)
                  Snslp_kernels.Registry.all));
          exit 2)
  | Some _, Some _ ->
      Fmt.epr "give either a file or --kernel, not both@.";
      exit 2
  | None, None ->
      Fmt.epr "nothing to compile: give a file or --kernel NAME@.";
      exit 2

let target_of_string s =
  match Target.by_name s with
  | Some t -> t
  | None ->
      Fmt.epr "unknown target %S (%s)@." s
        (String.concat ", " (List.map Target.to_string Target.all));
      exit 2

let run verbose file kernel mode model target revec packing unroll dump_before
    dump_after dump_graph stats simulate lookahead jobs verify_each lint validate =
  setup_logs verbose;
  if jobs < 1 then begin
    Fmt.epr "-j must be at least 1@.";
    exit 2
  end;
  let packing =
    match Config.packing_of_string packing with
    | Some p -> p
    | None ->
        Fmt.epr "unknown packing %S (greedy, global, global:BEAM, global:BEAM:BUDGET)@."
          packing;
        exit 2
  in
  let unroll =
    match Config.unroll_of_string unroll with
    | Some u -> u
    | None ->
        Fmt.epr "unknown unroll policy %S (none, auto, or a factor >= 2)@." unroll;
        exit 2
  in
  let src = load_source file kernel in
  (* A .ir input bypasses the frontend: parse the textual IR
     directly. *)
  let from_ir =
    match file with Some f -> Filename.check_suffix f ".ir" | None -> false
  in
  let setting : Pipeline.setting =
    match mode with
    | "o3" -> None
    | m -> (
        match Config.mode_of_string m with
        | Some mode ->
            let model =
              match Model.by_name model with
              | Some m -> m
              | None ->
                  Fmt.epr "unknown cost model %S (paper, x86)@." model;
                  exit 2
            in
            Some
              {
                Config.mode;
                model;
                target = target_of_string target;
                revec;
                packing;
                unroll;
                lookahead_depth = lookahead;
              }
        | None ->
            Fmt.epr "unknown mode %S (o3, slp, lslp, sn-slp)@." mode;
            exit 2)
  in
  let funcs =
    if from_ir then
      try [ Ir_parser.parse src ]
      with Ir_parser.Parse_error { line; message } ->
        Fmt.epr "IR parse error at line %d: %s@." line message;
        exit 1
    else
      try Snslp_frontend.Frontend.compile src
      with Snslp_frontend.Frontend.Error message ->
        Fmt.epr "%s@." message;
        exit 1
  in
  let failed = ref false in
  (* --lint analyses the *input* IR: findings there are the
     programmer's (or frontend's), not the optimizer's. *)
  if lint then
    List.iter
      (fun func ->
        List.iter
          (fun x ->
            if Snslp_lint.Finding.is_error x then failed := true;
            Fmt.pr "%a@." Snslp_lint.Finding.pp x)
          (Snslp_lint.Lint.run func))
      funcs;
  (* Functions fan out across worker domains; results come back in
     input order, so the printed output is independent of the
     schedule (and bit-identical to -j 1).  -j is a cap, not a
     mandate: the fan-out is clamped to what the machine can run in
     parallel and what the batch can amortise, so `-j 8` on a 1-core
     container costs nothing over `-j 1`. *)
  let results =
    Snslp_driver.Driver.run_all
      ~jobs:(Snslp_driver.Driver.adaptive_jobs ~requested:jobs funcs)
      ~verify_each ~validate ~setting funcs
  in
  List.iter2
    (fun func result ->
      if dump_before then Fmt.pr "; ---- input ----@.%a@." Printer.pp_func func;
      (match result.Pipeline.vect_report with
      | Some rep ->
          List.iter
            (fun (tr : Vectorize.tree_report) ->
              Fmt.pr "; seed {%s}@.;   %a -> %s@." tr.Vectorize.seed Cost.pp
                tr.Vectorize.cost
                (if tr.Vectorize.vectorized then "VECTORIZED" else "rejected");
              if dump_graph then Fmt.pr "%s" (Lazy.force tr.Vectorize.graph_dump))
            rep.Vectorize.trees;
          if stats then begin
            let cfg = rep.Vectorize.config in
            Fmt.pr "; target: %s (%d-bit%s), model: %s, revec: %b@."
              cfg.Config.target.Target.name cfg.Config.target.Target.vector_bits
              (if cfg.Config.target.Target.has_addsub then ", addsub" else "")
              cfg.Config.model.Model.name cfg.Config.revec;
            let s = rep.Vectorize.stats in
            Fmt.pr "; stats: %a@." Stats.pp s;
            if cfg.Config.unroll <> Config.No_unroll then
              Fmt.pr
                "; loops: %d found, %d counted, %d fully unrolled, %d partially \
                 unrolled, %d blocks jammed@."
                s.Stats.loops_found s.Stats.loops_counted s.Stats.loops_unrolled_full
                s.Stats.loops_unrolled_partial s.Stats.loop_blocks_jammed
          end
      | None -> ());
      (match result.Pipeline.validation with
      | None -> ()
      | Some v ->
          let bad = function
            | Snslp_lint.Validate.Mismatch _ -> true
            | Snslp_lint.Validate.Valid | Snslp_lint.Validate.Unknown _ -> false
          in
          List.iter
            (fun (pass, verdict) ->
              if bad verdict then failed := true;
              Fmt.pr "; validate @%s %s: %s@." func.Defs.fname pass
                (Snslp_lint.Validate.verdict_to_string verdict))
            v.Pipeline.pass_verdicts;
          if bad v.Pipeline.end_verdict then failed := true;
          Fmt.pr "; validate @%s end-to-end: %s@." func.Defs.fname
            (Snslp_lint.Validate.verdict_to_string v.Pipeline.end_verdict);
          List.iter
            (fun msg ->
              failed := true;
              Fmt.pr "; graph invariant @%s: %s@." func.Defs.fname msg)
            v.Pipeline.graph_findings);
      if dump_after then
        Fmt.pr "; ---- after %s ----@.%a@." (Pipeline.setting_name setting) Printer.pp_func
          result.Pipeline.func;
      if simulate then begin
        match kernel with
        | Some kname -> (
            match Snslp_kernels.Registry.find kname with
            | Some k ->
                let wl = Snslp_kernels.Workload.prepare k in
                let r = Snslp_kernels.Workload.measure wl result.Pipeline.func in
                Fmt.pr "; simulated: %.0f cycles, %d instrs over %d iterations@."
                  r.Snslp_simperf.Simperf.cycles r.Snslp_simperf.Simperf.instrs_executed
                  wl.Snslp_kernels.Workload.iters
            | None -> ())
        | None ->
            Fmt.pr "; --simulate needs --kernel (the registry defines the workload)@."
      end)
    funcs results;
  if !failed then exit 1

let () =
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Debug logging.") in
  let file = Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE") in
  let kernel =
    Arg.(value & opt (some string) None & info [ "kernel" ] ~doc:"Registry kernel name.")
  in
  let mode =
    Arg.(
      value & opt string "sn-slp"
      & info [ "mode" ] ~doc:"Vectorizer: o3, slp, lslp or sn-slp.")
  in
  let model =
    Arg.(value & opt string "paper" & info [ "model" ] ~doc:"Cost model: paper or x86.")
  in
  let target =
    Arg.(
      value & opt string "sse"
      & info [ "target" ]
          ~doc:
            "Target: sse, avx2, avx512, neon or sse-noaddsub.  Seed-window \
             sizes, bundle widths and profitability all derive from the \
             target's register width and cost flavour.")
  in
  let revec =
    Arg.(
      value & flag
      & info [ "revec" ]
          ~doc:
            "Run the Revec-style re-widening pass after the vectorizer: \
             adjacent same-shape vector bundles re-pack into wider registers \
             when the target has spare lanes.  Pair/widen counters appear \
             under --stats.")
  in
  let packing =
    Arg.(
      value & opt string "greedy"
      & info [ "packing" ]
          ~doc:
            "Statement packing: $(b,greedy) (the paper's root-first builder) or \
             $(b,global)[:BEAM[:BUDGET]] (goSLP-style beam/branch-and-bound pack \
             selection; never worse than greedy under the machine-model static \
             cost).  Search counters appear under --stats.")
  in
  let unroll =
    Arg.(
      value & opt string "auto"
      & info [ "unroll" ]
          ~doc:
            "Loop unrolling ahead of vectorization: $(b,auto) (full unroll of \
             counted loops with known trip counts under the size budget, \
             partial unroll otherwise), a factor $(b,N) >= 2, or $(b,none).  \
             Loop counters appear under --stats.")
  in
  let dump_before = Arg.(value & flag & info [ "dump-before" ] ~doc:"Print input IR.") in
  let dump_after = Arg.(value & flag & info [ "dump-after" ] ~doc:"Print optimised IR.") in
  let dump_graph =
    Arg.(value & flag & info [ "dump-graph" ] ~doc:"Print the SLP graph per seed.")
  in
  let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print vectorizer statistics.") in
  let simulate =
    Arg.(value & flag & info [ "simulate" ] ~doc:"Simulate execution (needs --kernel).")
  in
  let lookahead =
    Arg.(value & opt int 2 & info [ "lookahead" ] ~doc:"Look-ahead depth.")
  in
  let jobs =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ]
          ~doc:
            "Worker domains for the vectorization driver; functions fan out \
             across domains, output is identical for every value.")
  in
  let verify_each =
    Arg.(
      value & flag
      & info [ "verify-each" ]
          ~doc:
            "Run the IR verifier after every pipeline pass (not just at the \
             end); a failure names the pass that broke the IR.")
  in
  let lint =
    Arg.(
      value & flag
      & info [ "lint" ]
          ~doc:
            "Run the static analyzer over the input IR before optimising; \
             exits 1 on any error-severity finding.")
  in
  let validate =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "Run the translation validator after every pipeline pass and \
             end-to-end, and check SLP graph invariants; exits 1 on any \
             $(b,mismatch) verdict or invariant violation.")
  in
  let term =
    Term.(
      const run $ verbose $ file $ kernel $ mode $ model $ target $ revec $ packing
      $ unroll $ dump_before $ dump_after $ dump_graph $ stats $ simulate $ lookahead
      $ jobs $ verify_each $ lint $ validate)
  in
  let info =
    Cmd.info "snslpc" ~doc:"Super-Node SLP vectorizing compiler for KernelC"
  in
  exit (Cmd.eval (Cmd.v info term))
