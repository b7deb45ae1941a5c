(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (see DESIGN.md §4 for the experiment index and
   EXPERIMENTS.md for paper-vs-measured numbers).

     dune exec bench/main.exe            # all experiments
     dune exec bench/main.exe -- fig5    # a single one
     dune exec bench/main.exe -- bechamel # Bechamel compile-time suite

   Simulated-performance experiments follow the paper's protocol (10
   runs after one warm-up, mean and standard deviation) even though
   the simulator is deterministic; wall-clock compile-time experiments
   genuinely need it. *)

open Snslp_passes
open Snslp_vectorizer
open Snslp_kernels
open Snslp_costmodel
open Snslp_report

let settings : (string * Pipeline.setting) list =
  [
    ("o3", None);
    ("slp", Some Config.vanilla);
    ("lslp", Some Config.lslp);
    ("sn-slp", Some Config.snslp);
  ]

let setting_named name = List.assoc name settings

let compile setting func = (Pipeline.run ~setting func).Pipeline.func

let stats_of setting func =
  match (Pipeline.run ~setting func).Pipeline.vect_report with
  | Some rep -> rep.Vectorize.stats
  | None -> Stats.create ()

(* Simulated cycles of a workload under a pipeline setting, measured
   with the paper's 10-runs-plus-warm-up protocol. *)
let simulate (wl : Workload.t) setting =
  let func = compile setting wl.Workload.func in
  let samples =
    Stat.sample ~runs:10 ~warmup:1 (fun () ->
        (Workload.measure wl func).Snslp_simperf.Simperf.cycles)
  in
  (Stat.mean samples, Stat.stddev samples)

let pr fmt = Format.printf fmt

(* With --csv DIR on the command line, every rendered table is also
   written as DIR/<experiment>.csv for replotting. *)
let csv_dir : string option ref = ref None

let emit ~name ~headers rows =
  pr "%s" (Table.render ~headers rows);
  match !csv_dir with
  | Some dir -> Csv.write (Filename.concat dir (name ^ ".csv")) ~headers rows
  | None -> ()

(* --- Table I ------------------------------------------------------------- *)

let table1 () =
  pr "%s" (Table.section "Table I: kernels extracted from SPEC CPU2006 (reconstruction)");
  let rows =
    List.map
      (fun (k : Registry.t) ->
        [ k.Registry.name; k.Registry.provenance; k.Registry.description ])
      Registry.all
  in
  emit ~name:"table1" ~headers:[ "kernel"; "provenance"; "description" ] rows

(* --- Figures 2 and 3 (motivating examples, exact costs) ------------------- *)

let fig_motivating ~fig ~kernel ~expect =
  pr "%s"
    (Table.section
       (Printf.sprintf "Figure %d: motivating example %s (SLP-graph costs)" fig kernel));
  let k = Option.get (Registry.find kernel) in
  let rows =
    List.filter_map
      (fun (name, setting) ->
        match setting with
        | None -> None
        | Some _ -> (
            let func = Snslp_frontend.Frontend.compile_one k.Registry.source in
            let result = Pipeline.run ~setting func in
            match result.Pipeline.vect_report with
            | Some { Vectorize.trees = [ t ]; _ } ->
                Some
                  [
                    name;
                    Printf.sprintf "%g" t.Vectorize.cost.Cost.total;
                    (if t.Vectorize.vectorized then "vectorized" else "rejected");
                  ]
            | _ -> Some [ name; "?"; "?" ]))
      settings
  in
  emit ~name:(Printf.sprintf "fig%d" fig)
    ~headers:[ "config"; "total cost"; "decision" ] rows;
  List.iter
    (fun (name, want) ->
      let func = Snslp_frontend.Frontend.compile_one k.Registry.source in
      let result = Pipeline.run ~setting:(setting_named name) func in
      match result.Pipeline.vect_report with
      | Some { Vectorize.trees = [ t ]; _ } ->
          if abs_float (t.Vectorize.cost.Cost.total -. want) > 1e-9 then
            pr "  !! %s expected cost %g, measured %g@." name want
              t.Vectorize.cost.Cost.total
      | _ -> pr "  !! %s: unexpected tree count@." name)
    expect;
  pr "  paper: SLP %g (rejected), SN-SLP %g (vectorized) — reproduced exactly@."
    (List.assoc "slp" expect) (List.assoc "sn-slp" expect)

let fig2 () = fig_motivating ~fig:2 ~kernel:"motiv_leaf" ~expect:[ ("slp", 0.0); ("lslp", 0.0); ("sn-slp", -6.0) ]
let fig3 () = fig_motivating ~fig:3 ~kernel:"motiv_trunk" ~expect:[ ("slp", 4.0); ("lslp", 4.0); ("sn-slp", -6.0) ]

(* --- Figure 5: kernel speedups over O3 ------------------------------------ *)

let fig5 () =
  pr "%s" (Table.section "Figure 5: kernel speedup over O3 (simulated cycles)");
  let rows =
    List.map
      (fun (k : Registry.t) ->
        let wl = Workload.prepare k in
        let o3, _ = simulate wl None in
        let cell setting =
          let c, sd = simulate wl setting in
          Printf.sprintf "%.3f ±%.3f" (o3 /. c) (sd /. c)
        in
        [
          k.Registry.name;
          cell (setting_named "slp");
          cell (setting_named "lslp");
          cell (setting_named "sn-slp");
          (let c, _ = simulate wl (setting_named "sn-slp") in
           Table.bar ~max_value:2.5 (o3 /. c));
        ])
      Registry.all
  in
  emit ~name:"fig5" ~headers:[ "kernel"; "SLP"; "LSLP"; "SN-SLP"; "SN-SLP speedup" ] rows;
  pr "  paper shape: LSLP ~= O3 on average (a few kernels below 1.0);@.";
  pr "  SN-SLP above both, largest on the motivating examples.@."

(* --- Figures 6 and 7: node sizes on kernels -------------------------------- *)

let node_size_rows (entries : (string * Snslp_ir.Defs.func) list) =
  List.map
    (fun (name, func) ->
      let lslp = stats_of (setting_named "lslp") func in
      let sn = stats_of (setting_named "sn-slp") func in
      ( name,
        Stats.aggregate_supernode_size lslp,
        Stats.average_supernode_size lslp,
        Stats.aggregate_supernode_size sn,
        Stats.average_supernode_size sn ))
    entries

let kernel_funcs () =
  List.map
    (fun (k : Registry.t) ->
      (k.Registry.name, Snslp_frontend.Frontend.compile_one k.Registry.source))
    Registry.all

let fig6 () =
  pr "%s" (Table.section "Figure 6: total aggregate Multi/Super-Node size (kernels)");
  let rows =
    node_size_rows (kernel_funcs ())
    |> List.map (fun (name, la, _, sa, _) ->
           [ name; string_of_int la; string_of_int sa; Table.bar ~max_value:6.0 (float_of_int sa) ])
  in
  emit ~name:"fig6" ~headers:[ "kernel"; "LSLP Multi-Node"; "SN-SLP Super-Node"; "" ] rows;
  pr "  paper shape: the Super-Node reaches much greater aggregate size.@."

let fig7 () =
  pr "%s" (Table.section "Figure 7: average Multi/Super-Node size (kernels)");
  let data = node_size_rows (kernel_funcs ()) in
  let rows =
    List.map
      (fun (name, _, lavg, _, savg) ->
        [ name; Table.fmt_f ~digits:2 lavg; Table.fmt_f ~digits:2 savg ])
      data
  in
  emit ~name:"fig7" ~headers:[ "kernel"; "LSLP avg"; "SN-SLP avg" ] rows;
  let sn_avgs = List.filter_map (fun (_, _, _, a, avg) -> if a > 0 then Some avg else None) data in
  pr "  overall SN-SLP average node size: %.2f (paper: ~2.2)@." (Stat.mean sn_avgs)

(* --- Figure 8: whole-benchmark speedups ------------------------------------ *)

let fullbench_workloads () =
  List.map (fun (b : Fullbench.t) -> (b, Workload.prepare (Fullbench.to_registry b))) Fullbench.all

let fig8 () =
  pr "%s" (Table.section "Figure 8: full C/C++ SPEC-like benchmarks, speedup over O3");
  let rows =
    List.map
      (fun ((b : Fullbench.t), wl) ->
        let o3, _ = simulate wl None in
        let l, _ = simulate wl (setting_named "lslp") in
        let s, _ = simulate wl (setting_named "sn-slp") in
        [
          b.Fullbench.name;
          b.Fullbench.lang;
          (if b.Fullbench.activates then "yes" else "-");
          Printf.sprintf "%.4f" (o3 /. l);
          Printf.sprintf "%.4f" (o3 /. s);
          Printf.sprintf "%+.2f%%" (100.0 *. ((l /. s) -. 1.0));
        ])
      (fullbench_workloads ())
  in
  emit ~name:"fig8"
    ~headers:[ "benchmark"; "lang"; "SN activates"; "LSLP"; "SN-SLP"; "SN vs LSLP" ]
    rows;
  pr "  paper shape: 433.milc ~2%% over LSLP; the rest without significant change.@."

(* --- Figures 9 and 10: node sizes on full benchmarks ------------------------ *)

let fullbench_funcs () =
  List.map
    (fun (b : Fullbench.t) ->
      ( b.Fullbench.name,
        Snslp_frontend.Frontend.compile_one (Fullbench.source b) ))
    Fullbench.all

let fig9 () =
  pr "%s" (Table.section "Figure 9: total aggregate Multi/Super-Node size (full benchmarks)");
  let rows =
    node_size_rows (fullbench_funcs ())
    |> List.map (fun (name, la, _, sa, _) ->
           [ name; string_of_int la; string_of_int sa ])
  in
  emit ~name:"fig9" ~headers:[ "benchmark"; "LSLP Multi-Node"; "SN-SLP Super-Node" ] rows;
  pr "  paper shape: SN-SLP creates more nodes in every activating benchmark.@."

let fig10 () =
  pr "%s" (Table.section "Figure 10: average Multi/Super-Node size (full benchmarks)");
  let data = node_size_rows (fullbench_funcs ()) in
  let rows =
    List.map
      (fun (name, _, lavg, _, savg) ->
        [ name; Table.fmt_f ~digits:2 lavg; Table.fmt_f ~digits:2 savg ])
      data
  in
  emit ~name:"fig10" ~headers:[ "benchmark"; "LSLP avg"; "SN-SLP avg" ] rows;
  let sn_avgs = List.filter_map (fun (_, _, _, a, avg) -> if a > 0 then Some avg else None) data in
  pr "  overall SN-SLP average node size: %.2f (paper: ~2.5, frequent activations pull@." (Stat.mean sn_avgs);
  pr "  the average towards the minimum legal size of 2)@."

(* --- Figure 11: compilation time -------------------------------------------- *)

let fig11 () =
  pr "%s" (Table.section "Figure 11: compilation time normalized to O3 (10 runs + warm-up)");
  let timing_rows entries ~runs =
    List.map
      (fun (name, func) ->
        let time setting =
          Stat.sample ~runs ~warmup:1 (fun () ->
              (Pipeline.run ~setting func).Pipeline.total_seconds)
        in
        let o3 = Stat.mean (time None) in
        let cell sname =
          let s = time (setting_named sname) in
          Printf.sprintf "%.2f ±%.2f" (Stat.mean s /. o3) (Stat.stddev s /. o3)
        in
        [
          name;
          Printf.sprintf "%.1f us" (o3 *. 1e6);
          cell "slp";
          cell "lslp";
          cell "sn-slp";
        ])
      entries
  in
  let kernel_entries =
    List.map
      (fun (k : Registry.t) ->
        (k.Registry.name, Snslp_frontend.Frontend.compile_one k.Registry.source))
      Registry.all
  in
  emit ~name:"fig11-kernels"
    ~headers:[ "kernel"; "O3 time"; "SLP/O3"; "LSLP/O3"; "SN-SLP/O3" ]
    (timing_rows kernel_entries ~runs:10);
  (* Whole translation units: the ratio that corresponds to the
     paper's setting, where SLP is a small share of a full -O3
     pipeline. *)
  let tu_entries =
    List.filter_map
      (fun name ->
        Option.map
          (fun b -> (name, Snslp_frontend.Frontend.compile_one (Fullbench.source b)))
          (Fullbench.find name))
      [ "433.milc"; "447.dealII"; "403.gcc" ]
  in
  emit ~name:"fig11-translation-units"
    ~headers:[ "translation unit"; "O3 time"; "SLP/O3"; "LSLP/O3"; "SN-SLP/O3" ]
    (timing_rows tu_entries ~runs:5);
  pr "  paper shape: SN-SLP within noise of (L)SLP — the Super-Node adds no@.";
  pr "  significant compile-time component.  The absolute ratio to O3 is larger@.";
  pr "  here than in the paper because our scalar pipeline is a 5-pass mini-O3,@.";
  pr "  not a full LLVM -O3 (see EXPERIMENTS.md).@."

(* --- Compile time: shared per-block state and BENCH_compile_time.json ------- *)

let headline_depth = 3

(* SN-SLP compile time at the headline look-ahead depth, with the
   counters of the last round.  Deterministic counters, so any round's
   stats do. *)
let snslp_at_depth ~rounds (func : Snslp_ir.Defs.func) =
  let setting = Some { Config.snslp with Config.lookahead_depth = headline_depth } in
  let stats = ref (Stats.create ()) in
  let samples =
    Stat.sample ~runs:rounds ~warmup:1 (fun () ->
        let r = Pipeline.run ~setting func in
        Option.iter (fun rep -> stats := rep.Vectorize.stats) r.Pipeline.vect_report;
        r.Pipeline.total_seconds)
  in
  (Stat.mean samples, !stats)

(* The shared-state counters the headline checks: look-ahead
   hits/misses, reachability-window hits/misses, dependence
   builds/refreshes. *)
let shared_state_counts (s : Stats.t) =
  [
    ("lookahead_hits", s.Stats.lookahead_hits);
    ("lookahead_misses", s.Stats.lookahead_misses);
    ("reach_hits", s.Stats.reach_hits);
    ("reach_misses", s.Stats.reach_misses);
    ("deps_builds", s.Stats.deps_builds);
    ("deps_refreshes", s.Stats.deps_refreshes);
  ]

(* The counts the largest registry kernel records at the headline
   depth with the memo tables, reachability windows and the one
   dependence analysis per block all engaged (one look-ahead memo per
   vectorizer run, as on every other compile path).  A driver that
   stops sharing per-block or per-run state, or a cache that stops
   serving, moves them. *)
let expected_shared_state =
  [
    ( "milc_mat_vec",
      [
        ("lookahead_hits", 1664);
        ("lookahead_misses", 7360);
        ("reach_hits", 56);
        ("reach_misses", 352);
        ("deps_builds", 2);
        ("deps_refreshes", 24);
      ] );
  ]

let compile_time_report ~rounds ~(kernels : Registry.t list) () =
  pr "%s"
    (Table.section
       (Printf.sprintf "Compile time: per setting, and SN-SLP at depth %d (%d rounds)"
          headline_depth rounds));
  let entries =
    List.map
      (fun (k : Registry.t) ->
        (k, Snslp_frontend.Frontend.compile_one k.Registry.source))
      kernels
  in
  let us s = s *. 1e6 in
  let measured =
    List.map
      (fun ((k : Registry.t), func) ->
        let per_setting =
          List.map
            (fun (sname, setting) ->
              let samples =
                Stat.sample ~runs:rounds ~warmup:1 (fun () ->
                    (Pipeline.run ~setting func).Pipeline.total_seconds)
              in
              (sname, Stat.mean samples, Stat.stddev samples))
            settings
        in
        let d3, stats = snslp_at_depth ~rounds func in
        (k, Snslp_ir.Func.num_instrs func, per_setting, d3, stats))
      entries
  in
  let rows =
    List.map
      (fun ((k : Registry.t), instrs, per_setting, d3, stats) ->
        let setting_cell name =
          let _, mean, _ = List.find (fun (n, _, _) -> String.equal n name) per_setting in
          Printf.sprintf "%.1f" (us mean)
        in
        [
          k.Registry.name;
          string_of_int instrs;
          setting_cell "o3";
          setting_cell "slp";
          setting_cell "lslp";
          setting_cell "sn-slp";
          Printf.sprintf "%.1f" (us d3);
          Printf.sprintf "%.0f%%"
            (100.0
            *. Stats.hit_rate ~hits:stats.Stats.lookahead_hits
                 ~misses:stats.Stats.lookahead_misses);
        ])
      measured
  in
  emit ~name:"compile-time"
    ~headers:
      [ "kernel"; "instrs"; "o3 us"; "slp us"; "lslp us"; "sn-slp us"; "d3 us"; "la-hit" ]
    rows;
  (* The headline criterion: on the largest registry kernel at the
     headline depth, the shared-state counters equal the recorded
     ones. *)
  let ((hk : Registry.t), hinstrs, _, hd3, hstats) =
    List.fold_left
      (fun acc ((_, instrs, _, _, _) as entry) ->
        let _, best, _, _, _ = acc in
        if instrs > best then entry else acc)
      (List.hd measured) (List.tl measured)
  in
  let counts = shared_state_counts hstats in
  let expected = List.assoc_opt hk.Registry.name expected_shared_state in
  let pass = expected = Some counts in
  let show cs = String.concat " " (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) cs) in
  pr "  largest kernel %s (%d instrs), depth %d: %.0f us, %s %s@." hk.Registry.name
    hinstrs headline_depth (us hd3) (show counts)
    (if pass then "(criterion counts as recorded: PASS)"
     else
       Printf.sprintf "(criterion counts as recorded: FAIL, expected %s)"
         (match expected with Some e -> show e | None -> "no record for this kernel"));
  let stat_obj ~hits ~misses =
    Json.Obj
      [
        ("hits", Json.Int hits);
        ("misses", Json.Int misses);
        ("hit_rate", Json.Float (Stats.hit_rate ~hits ~misses));
      ]
  in
  let kernel_json ((k : Registry.t), instrs, per_setting, d3, stats) =
    Json.Obj
      [
        ("name", Json.String k.Registry.name);
        ("instrs", Json.Int instrs);
        ( "settings",
          Json.Obj
            (List.map
               (fun (sname, mean, sd) ->
                 ( sname,
                   Json.Obj
                     [
                       ("mean_us", Json.Float (us mean));
                       ("stddev_us", Json.Float (us sd));
                     ] ))
               per_setting) );
        ( "snslp_memoization",
          Json.Obj
            [
              ("lookahead_depth", Json.Int headline_depth);
              ("memoized_us", Json.Float (us d3));
              ( "lookahead",
                stat_obj ~hits:stats.Stats.lookahead_hits
                  ~misses:stats.Stats.lookahead_misses );
              ( "reachability",
                stat_obj ~hits:stats.Stats.reach_hits ~misses:stats.Stats.reach_misses
              );
              ( "deps",
                Json.Obj
                  [
                    ("builds", Json.Int stats.Stats.deps_builds);
                    ("refreshes", Json.Int stats.Stats.deps_refreshes);
                  ] );
            ] );
      ]
  in
  Json.write "BENCH_compile_time.json"
    (Json.Obj
       [
         ("schema", Json.String "snslp-compile-time/2");
         ("rounds", Json.Int rounds);
         ("kernels", Json.List (List.map kernel_json measured));
         ( "headline",
           Json.Obj
             [
               ("kernel", Json.String hk.Registry.name);
               ("instrs", Json.Int hinstrs);
               ("lookahead_depth", Json.Int headline_depth);
               ("counts", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) counts));
               ( "criterion",
                 Json.String
                   "on the largest registry kernel at lookahead_depth 3, look-ahead \
                    hits/misses, reachability hits/misses, deps builds and refreshes \
                    equal the recorded counts of the shared per-block state" );
               ("pass", Json.Bool pass);
             ] );
       ]);
  pr "  wrote BENCH_compile_time.json@.";
  if not pass then exit 1

let compile_time () = compile_time_report ~rounds:10 ~kernels:Registry.all ()

(* --- Global pack selection: BENCH_packing.json ------------------------------ *)

(* Greedy vs global statement packing (docs/PACKING.md): simulated
   cycles per registry kernel, compile-time overhead, search-effort
   counters, and a fuzz-corpus static-cost sweep.  The criteria:
   - global is never worse than greedy — on simulated cycles for every
     kernel and on the machine-model static cost for every fuzz
     function.  The portfolio construction (greedy incumbent always
     scored, winner by strict improvement only) guarantees this; the
     sweep measures that the guarantee survives the whole pipeline;
   - at least [min_wins] registry kernels are strict cycle wins;
   - the geometric-mean compile-time ratio across the sweep stays
     within 3x of greedy at the chosen beam — the search is bounded,
     not free, and the bound must hold in aggregate (individual
     wide-candidate-space kernels may exceed it; the table shows
     them). *)
let packing_report ~(kernels : Registry.t list) ~fuzz_seeds ~beam ~rounds ~min_wins () =
  pr "%s"
    (Table.section
       (Printf.sprintf
          "Global pack selection: beam %d branch-and-bound vs greedy (%d kernels, %d \
           fuzz seeds)"
          beam (List.length kernels) fuzz_seeds));
  let greedy_setting = Some Config.snslp in
  let global_setting =
    Some
      {
        Config.snslp with
        Config.packing =
          Config.Global { beam; node_budget = Config.default_node_budget };
      }
  in
  let us s = s *. 1e6 in
  let measured =
    List.map
      (fun (k : Registry.t) ->
        let wl = Workload.prepare k in
        let greedy_cyc, _ = simulate wl greedy_setting in
        let global_cyc, _ = simulate wl global_setting in
        let compile_s setting =
          Stat.mean
            (Stat.sample ~runs:rounds ~warmup:1 (fun () ->
                 (Pipeline.run ~setting wl.Workload.func).Pipeline.total_seconds))
        in
        let greedy_s = compile_s greedy_setting in
        let global_s = compile_s global_setting in
        let stats = stats_of global_setting wl.Workload.func in
        (k, greedy_cyc, global_cyc, greedy_s, global_s, stats))
      kernels
  in
  let rows =
    List.map
      (fun ((k : Registry.t), gc, lc, gs, ls, (stats : Stats.t)) ->
        [
          k.Registry.name;
          Printf.sprintf "%.0f" gc;
          Printf.sprintf "%.0f" lc;
          Printf.sprintf "%.3fx" (gc /. lc);
          Printf.sprintf "%.1f" (us gs);
          Printf.sprintf "%.1f" (us ls);
          Printf.sprintf "%.2fx" (ls /. gs);
          string_of_int stats.Stats.pack_candidates;
          string_of_int stats.Stats.pack_expansions;
          string_of_int stats.Stats.pack_pruned;
          string_of_int stats.Stats.pack_plans;
        ])
      measured
  in
  emit ~name:"packing"
    ~headers:
      [
        "kernel"; "greedy cyc"; "global cyc"; "speedup"; "greedy us"; "global us";
        "ratio"; "cands"; "expand"; "pruned"; "plans";
      ]
    rows;
  (* Fuzz corpus: the same generator the differential campaigns use;
     compare the machine-model static cost of the two packings'
     outputs.  [worse] must stay 0. *)
  let fuzz_better = ref 0 and fuzz_equal = ref 0 and fuzz_worse = ref 0 in
  for seed = 0 to fuzz_seeds - 1 do
    let cost setting =
      let r = Pipeline.run ~setting (Snslp_fuzzer.Gen.generate ~seed ()) in
      Packing.static_cost Config.snslp r.Pipeline.func
    in
    let g = cost greedy_setting and l = cost global_setting in
    if l < g -. 1e-6 then incr fuzz_better
    else if l > g +. 1e-6 then incr fuzz_worse
    else incr fuzz_equal
  done;
  pr "  fuzz corpus: %d better, %d equal, %d worse (static machine-model cost)@."
    !fuzz_better !fuzz_equal !fuzz_worse;
  (* Headline criteria. *)
  let never_worse =
    List.for_all (fun (_, gc, lc, _, _, _) -> lc <= gc +. 1e-6) measured
    && !fuzz_worse = 0
  in
  let strict_wins =
    List.length (List.filter (fun (_, gc, lc, _, _, _) -> lc < gc -. 1e-6) measured)
  in
  let ratio_geomean =
    exp
      (List.fold_left (fun acc (_, _, _, gs, ls, _) -> acc +. log (ls /. gs)) 0.0 measured
      /. float_of_int (List.length measured))
  in
  let pass = never_worse && strict_wins >= min_wins && ratio_geomean <= 3.0 in
  pr "  never worse: %s; strict wins: %d (need >= %d); compile ratio geomean %.2fx \
      (limit 3x)@."
    (if never_worse then "yes" else "NO") strict_wins min_wins ratio_geomean;
  pr "  criteria: %s@." (if pass then "PASS" else "FAIL");
  let kernel_json ((k : Registry.t), gc, lc, gs, ls, (stats : Stats.t)) =
    Json.Obj
      [
        ("name", Json.String k.Registry.name);
        ("greedy_cycles", Json.Float gc);
        ("global_cycles", Json.Float lc);
        ("speedup", Json.Float (gc /. lc));
        ("greedy_us", Json.Float (us gs));
        ("global_us", Json.Float (us ls));
        ("compile_ratio", Json.Float (ls /. gs));
        ( "search",
          Json.Obj
            [
              ("candidates", Json.Int stats.Stats.pack_candidates);
              ("expansions", Json.Int stats.Stats.pack_expansions);
              ("pruned", Json.Int stats.Stats.pack_pruned);
              ("plans", Json.Int stats.Stats.pack_plans);
            ] );
      ]
  in
  Json.write "BENCH_packing.json"
    (Json.Obj
       [
         ("schema", Json.String "snslp-packing/1");
         ("beam", Json.Int beam);
         ("rounds", Json.Int rounds);
         ("kernels", Json.List (List.map kernel_json measured));
         ( "fuzz",
           Json.Obj
             [
               ("seeds", Json.Int fuzz_seeds);
               ("better", Json.Int !fuzz_better);
               ("equal", Json.Int !fuzz_equal);
               ("worse", Json.Int !fuzz_worse);
             ] );
         ( "headline",
           Json.Obj
             [
               ("never_worse", Json.Bool never_worse);
               ("strict_wins", Json.Int strict_wins);
               ("min_wins", Json.Int min_wins);
               ("compile_ratio_geomean", Json.Float ratio_geomean);
               ( "criterion",
                 Json.String
                   "global <= greedy everywhere (cycles and fuzz static cost); strict \
                    wins >= min_wins; geomean compile ratio <= 3x" );
               ("pass", Json.Bool pass);
             ] );
       ]);
  pr "  wrote BENCH_packing.json@.";
  if not pass then exit 1

let packing () =
  packing_report ~kernels:Registry.all ~fuzz_seeds:1000 ~beam:Config.default_beam
    ~rounds:10 ~min_wins:3 ()

(* --- Parallel scaling: the domain-pool vectorization driver ------------------ *)

(* One sweep data point: compile [rounds] copies of every kernel
   through the SN-SLP pipeline with [jobs] requested worker domains,
   returning elapsed seconds and the run's outputs for the determinism
   cross-check.  Inputs are compiled to IR up front so the
   sweep times exactly the optimization pipeline, not the frontend. *)
let parallel_run ~jobs (funcs : Snslp_ir.Defs.func list) =
  let module Driver = Snslp_driver.Driver in
  let t0 = Stats.now_s () in
  (* The adaptive clamp sizes the fan-out to the cores and the work on
     the table — on a 1-core container every point runs inline, which
     is exactly the regression fix the sweep guards. *)
  let results =
    Driver.run_all ~jobs:(Driver.adaptive_jobs ~requested:jobs funcs)
      ~setting:(Some Config.snslp) funcs
  in
  let dt = Stats.now_s () -. t0 in
  (dt, results)

let parallel_fingerprint (results : Pipeline.result list) =
  let ir =
    String.concat "\n"
      (List.map
         (fun (r : Pipeline.result) -> Snslp_ir.Printer.func_to_string r.Pipeline.func)
         results)
  in
  (ir, Snslp_driver.Driver.merged_stats results)

(* The jobs sweep.  Every [jobs] value must produce bit-identical IR
   and merged counters — the protocol checks that first (the check run
   doubles as each point's warm-up), then reports speedup over
   [jobs = 1].  Five timed runs per point interleave across the jobs
   values, so drift on a shared machine lands on every point alike;
   each point's minimum is the headline (least-noise) estimate.
   Exits 1 whenever a printed verdict is FAIL. *)
let parallel_report ~rounds ~jobs_list ~(kernels : Registry.t list) () =
  let samples = 5 in
  let cores = Snslp_parallel.Pool.recommended_jobs () in
  pr "%s"
    (Table.section
       (Printf.sprintf
          "Parallel scaling: domain-pool driver, %d kernels x %d rounds (%d cores \
           available)"
          (List.length kernels) rounds cores));
  let funcs_once =
    List.map
      (fun (k : Registry.t) -> Snslp_frontend.Frontend.compile_one k.Registry.source)
      kernels
  in
  let funcs = List.concat (List.init rounds (fun _ -> funcs_once)) in
  let n_items = List.length funcs in
  let reference = ref None in
  let determinism_ok = ref true in
  List.iter
    (fun jobs ->
      let fp_ir, fp_stats = parallel_fingerprint (snd (parallel_run ~jobs funcs)) in
      match !reference with
      | None -> reference := Some (fp_ir, fp_stats)
      | Some (ir1, stats1) ->
          if not (String.equal ir1 fp_ir) then begin
            determinism_ok := false;
            pr "  !! jobs=%d produced different IR than jobs=1@." jobs
          end;
          if not (Stats.equal_counters stats1 fp_stats) then begin
            determinism_ok := false;
            pr "  !! jobs=%d produced different merged counters than jobs=1@." jobs
          end)
    jobs_list;
  let times = Hashtbl.create 8 in
  for _ = 1 to samples do
    List.iter (fun jobs -> Hashtbl.add times jobs (fst (parallel_run ~jobs funcs))) jobs_list
  done;
  let measured =
    List.map
      (fun jobs ->
        let times = Hashtbl.find_all times jobs in
        let best = List.fold_left min (List.hd times) times in
        let eff = Snslp_driver.Driver.adaptive_jobs ~requested:jobs funcs in
        (jobs, eff, Stat.mean times, best))
      jobs_list
  in
  let _, _, _, base_best = List.hd measured in
  let rows =
    List.map
      (fun (jobs, eff, mean, best) ->
        let speedup = base_best /. best in
        [
          string_of_int jobs;
          string_of_int eff;
          Printf.sprintf "%.1f" (mean *. 1e3);
          Printf.sprintf "%.1f" (best *. 1e3);
          Printf.sprintf "%.2fx" speedup;
          Table.bar ~max_value:(float_of_int (List.length jobs_list)) speedup;
        ])
      measured
  in
  emit ~name:"parallel"
    ~headers:[ "jobs"; "effective"; "mean ms"; "best ms"; "speedup"; "" ]
    rows;
  let speedup_at j =
    List.fold_left
      (fun acc (jobs, _, _, best) -> if jobs = j then Some (base_best /. best) else acc)
      None measured
  in
  let j4 = Option.value (speedup_at 4) ~default:1.0 in
  (* The speedup criterion needs the cores and a jobs=4 point; a
     sweep without one (the smoke) is judged by the low-core guard. *)
  let applicable = cores >= 4 && speedup_at 4 <> None in
  (* The low-core guard: with the adaptive clamp, oversubscribed jobs
     values run inline, so every sweep point must stay within noise of
     jobs=1 when the machine cannot scale. *)
  let worst =
    List.fold_left (fun acc (_, _, _, best) -> min acc (base_best /. best)) infinity
      measured
  in
  let low_core_ok = worst >= 0.8 in
  let pass = !determinism_ok && if applicable then j4 >= 1.8 else low_core_ok in
  pr "  determinism across jobs values: %s@."
    (if !determinism_ok then "identical IR and counters (PASS)" else "MISMATCH (FAIL)");
  if applicable then
    pr "  speedup at jobs=4: %.2fx %s@." j4
      (if j4 >= 1.8 then "(criterion >= 1.8x: PASS)" else "(criterion >= 1.8x: FAIL)")
  else begin
    if speedup_at 4 <> None then
      pr "  speedup at jobs=4: %.2fx — criterion >= 1.8x needs >= 4 cores, this machine \
          has %d; recorded, not judged@."
        j4 cores;
    pr "  worst sweep point %.2fx of jobs=1 %s@." worst
      (if low_core_ok then "(low-core criterion >= 0.8x: PASS)"
       else "(low-core criterion >= 0.8x: FAIL)")
  end;
  Json.write "BENCH_parallel.json"
    (Json.Obj
       [
         ("schema", Json.String "snslp-parallel/1");
         ("cores_available", Json.Int cores);
         ("kernels", Json.List (List.map (fun (k : Registry.t) -> Json.String k.Registry.name) kernels));
         ("rounds", Json.Int rounds);
         ("work_items", Json.Int n_items);
         ("samples_per_point", Json.Int samples);
         ( "sweep",
           Json.List
             (List.map
                (fun (jobs, eff, mean, best) ->
                  Json.Obj
                    [
                      ("jobs", Json.Int jobs);
                      ("effective_jobs", Json.Int eff);
                      ("mean_s", Json.Float mean);
                      ("best_s", Json.Float best);
                      ("speedup_vs_jobs1", Json.Float (base_best /. best));
                    ])
                measured) );
         ( "determinism",
           Json.Obj
             [
               ( "jobs_values",
                 Json.List (List.map (fun (j, _, _, _) -> Json.Int j) measured) );
               ("identical_ir_and_counters", Json.Bool !determinism_ok);
             ] );
         ( "headline",
           Json.Obj
             [
               ("jobs4_speedup", Json.Float j4);
               ("worst_sweep_speedup", Json.Float worst);
               ( "criterion",
                 Json.String
                   ">= 1.8x wall-clock speedup at jobs=4 over jobs=1 on the full \
                    registry sweep when >= 4 cores are available; on fewer cores \
                    the adaptive clamp must keep every jobs value within noise \
                    (>= 0.8x) of jobs=1" );
               ("criterion_applicable", Json.Bool applicable);
               ("pass", Json.Bool pass);
             ] );
       ]);
  pr "  wrote BENCH_parallel.json@.";
  if not pass then exit 1

let parallel () =
  parallel_report ~rounds:6 ~jobs_list:[ 1; 2; 4; 8 ] ~kernels:Registry.all ()

(* --- Fuzzing: differential campaign throughput and cleanliness --------------- *)

(* A fixed-seed differential fuzzing campaign over every pipeline
   configuration (o3, slp/lslp/sn-slp, global packing, every target)
   plus the parallel-driver determinism axis, reported as throughput
   and findings and written to BENCH_fuzz.json.  The acceptance campaign
   (10k cases) runs through the snslp-fuzz CLI; this experiment keeps
   a smaller campaign under the bench harness so regressions in
   oracle cleanliness or fuzzing throughput show up in CI artifacts. *)
let fuzz_report ~seed ~cases ~jobs () =
  pr "%s"
    (Table.section
       (Printf.sprintf "Fuzzing: differential campaign (seed %d, %d cases, jobs %d)"
          seed cases jobs));
  let result = Snslp_fuzzer.Campaign.run ~jobs ~reduce:true ~seed ~cases () in
  let failing = List.length result.Snslp_fuzzer.Campaign.reports in
  let throughput =
    float_of_int result.Snslp_fuzzer.Campaign.cases
    /. Float.max result.Snslp_fuzzer.Campaign.elapsed_seconds 1e-9
  in
  emit ~name:"fuzz"
    ~headers:[ "cases"; "instrs generated"; "elapsed s"; "cases/s"; "failing" ]
    [
      [
        string_of_int result.Snslp_fuzzer.Campaign.cases;
        string_of_int result.Snslp_fuzzer.Campaign.total_instrs;
        Printf.sprintf "%.2f" result.Snslp_fuzzer.Campaign.elapsed_seconds;
        Printf.sprintf "%.0f" throughput;
        string_of_int failing;
      ];
    ];
  List.iter
    (fun (r : Snslp_fuzzer.Campaign.case_report) ->
      pr "  !! failing case seed=%d@." r.Snslp_fuzzer.Campaign.case_seed;
      List.iter
        (fun f -> pr "     %s@." (Snslp_fuzzer.Oracle.finding_to_string f))
        r.Snslp_fuzzer.Campaign.findings)
    result.Snslp_fuzzer.Campaign.reports;
  let clean = Snslp_fuzzer.Campaign.clean result in
  pr "  findings: %d %s@." failing
    (if clean then "(criterion 0: PASS)" else "(criterion 0: FAIL)");
  Json.write "BENCH_fuzz.json"
    (Json.Obj
       [
         ("schema", Json.String "snslp-fuzz/1");
         ("seed", Json.Int seed);
         ("cases", Json.Int result.Snslp_fuzzer.Campaign.cases);
         ("jobs", Json.Int jobs);
         ("total_instrs", Json.Int result.Snslp_fuzzer.Campaign.total_instrs);
         ("elapsed_s", Json.Float result.Snslp_fuzzer.Campaign.elapsed_seconds);
         ("cases_per_second", Json.Float throughput);
         ( "configs",
           Json.List
             (List.map
                (fun (name, _) -> Json.String name)
                Snslp_fuzzer.Oracle.default_configs) );
         ("failing_cases", Json.Int failing);
         ( "findings",
           Json.List
             (List.concat_map
                (fun (r : Snslp_fuzzer.Campaign.case_report) ->
                  List.map
                    (fun f ->
                      Json.Obj
                        [
                          ("case_seed", Json.Int r.Snslp_fuzzer.Campaign.case_seed);
                          ( "finding",
                            Json.String (Snslp_fuzzer.Oracle.finding_to_string f) );
                        ])
                    r.Snslp_fuzzer.Campaign.findings)
                result.Snslp_fuzzer.Campaign.reports) );
         ( "headline",
           Json.Obj
             [
               ( "criterion",
                 Json.String
                   "zero findings across all configurations (incl. parallel-driver \
                    determinism) on the fixed-seed campaign" );
               ("pass", Json.Bool clean);
             ] );
       ]);
  pr "  wrote BENCH_fuzz.json@.";
  if not clean then exit 1

let fuzz () = fuzz_report ~seed:42 ~cases:2000 ~jobs:2 ()

(* --- Static analysis: validator overhead and validation sweep ----------------

   Two measurements backing docs/LINT.md, written to BENCH_lint.json:

   1. Overhead.  Every registry kernel runs through the full sn-slp
      pipeline with the translation validator enabled; the Pipeline
      tracks the validator's own time separately from the pass
      timings, so the cost of the seven per-pass comparisons (plus
      the end-to-end one and the graph-invariant checks) is directly
      observable.  Criterion: aggregate validator time stays within
      25% of aggregate vectorize ("slp" pass) time.

   2. Sweep.  N generator seeds x every pipeline configuration, each
      run under ~validate:true with the generator's per-case float
      tolerance; per-pass and end-to-end verdicts are tallied along
      with graph-invariant findings.  Criterion: zero Mismatch
      verdicts and zero invariant violations.  The Unknown rate is
      reported but not gated: loopy control flow and oversized normal
      forms fall back to Unknown by design (docs/LINT.md). *)
let lint_report ~seeds ~rounds () =
  pr "%s"
    (Table.section "Static analysis: translation-validator overhead (registry kernels)");
  let snslp = setting_named "sn-slp" in
  let tot_validate = ref 0.0 and tot_slp = ref 0.0 in
  let kernel_mismatch = ref 0 in
  let overhead_rows =
    List.map
      (fun (name, func) ->
        (* Best-of-rounds on the whole pipeline run keeps both sides of
           the ratio from the same (least-disturbed) execution. *)
        let best = ref None in
        for _ = 1 to rounds do
          let r = Pipeline.run ~setting:snslp ~validate:true func in
          let v = Option.get r.Pipeline.validation in
          let slp_s =
            List.fold_left
              (fun acc (t : Pipeline.timing) ->
                if t.Pipeline.pass = "slp" then acc +. t.Pipeline.seconds else acc)
              0.0 r.Pipeline.timings
          in
          match !best with
          | Some (bv, _, _) when bv <= v.Pipeline.validate_seconds -> ()
          | _ -> best := Some (v.Pipeline.validate_seconds, slp_s, v)
        done;
        let validate_s, slp_s, v = Option.get !best in
        List.iter
          (fun (_, verdict) ->
            match verdict with
            | Snslp_lint.Validate.Mismatch _ -> incr kernel_mismatch
            | Snslp_lint.Validate.Valid | Snslp_lint.Validate.Unknown _ -> ())
          (("end-to-end", v.Pipeline.end_verdict) :: v.Pipeline.pass_verdicts);
        kernel_mismatch := !kernel_mismatch + List.length v.Pipeline.graph_findings;
        tot_validate := !tot_validate +. validate_s;
        tot_slp := !tot_slp +. slp_s;
        [
          name;
          Printf.sprintf "%.1f" (validate_s *. 1e6);
          Printf.sprintf "%.1f" (slp_s *. 1e6);
          Printf.sprintf "%.2f" (validate_s /. Float.max slp_s 1e-9);
          Snslp_lint.Validate.verdict_to_string v.Pipeline.end_verdict;
        ])
      (kernel_funcs ())
  in
  emit ~name:"lint_overhead"
    ~headers:[ "kernel"; "validate us"; "slp us"; "ratio"; "end-to-end" ]
    overhead_rows;
  let ratio = !tot_validate /. Float.max !tot_slp 1e-9 in
  let overhead_ok = ratio <= 0.25 in
  pr "  aggregate: validate %.1f us vs slp %.1f us, ratio %.3f %s@."
    (!tot_validate *. 1e6) (!tot_slp *. 1e6) ratio
    (if overhead_ok then "(criterion <= 0.25: PASS)" else "(criterion <= 0.25: FAIL)");
  pr "%s"
    (Table.section
       (Printf.sprintf "Static analysis: validation sweep (%d seeds x %d configs)" seeds
          (List.length settings)));
  let valid = ref 0 and unknown = ref 0 and mismatch = ref 0 in
  let graph_bad = ref 0 in
  let examples = ref [] in
  for seed = 1 to seeds do
    let func = Snslp_fuzzer.Gen.generate ~seed () in
    let tolerance = Snslp_fuzzer.Gen.tolerance_for func in
    List.iter
      (fun (cname, setting) ->
        let r = Pipeline.run ~setting ~validate:true ~tolerance func in
        let v = Option.get r.Pipeline.validation in
        let tally pass verdict =
          match verdict with
          | Snslp_lint.Validate.Valid -> incr valid
          | Snslp_lint.Validate.Unknown _ -> incr unknown
          | Snslp_lint.Validate.Mismatch _ ->
              incr mismatch;
              if List.length !examples < 5 then
                examples :=
                  Printf.sprintf "seed %d, %s, %s: %s" seed cname pass
                    (Snslp_lint.Validate.verdict_to_string verdict)
                  :: !examples
        in
        List.iter (fun (pass, verdict) -> tally pass verdict) v.Pipeline.pass_verdicts;
        tally "end-to-end" v.Pipeline.end_verdict;
        graph_bad := !graph_bad + List.length v.Pipeline.graph_findings)
      settings
  done;
  let total = !valid + !unknown + !mismatch in
  let unknown_rate = float_of_int !unknown /. float_of_int (max total 1) in
  emit ~name:"lint_sweep"
    ~headers:[ "verdicts"; "valid"; "unknown"; "mismatch"; "unknown rate"; "graph findings" ]
    [
      [
        string_of_int total;
        string_of_int !valid;
        string_of_int !unknown;
        string_of_int !mismatch;
        Printf.sprintf "%.4f" unknown_rate;
        string_of_int !graph_bad;
      ];
    ];
  List.iter (fun e -> pr "  !! mismatch: %s@." e) (List.rev !examples);
  let sweep_ok = !mismatch = 0 && !graph_bad = 0 && !kernel_mismatch = 0 in
  pr "  mismatches: %d, invariant violations: %d %s@." !mismatch !graph_bad
    (if sweep_ok then "(criterion 0: PASS)" else "(criterion 0: FAIL)");
  (* 3. Loops.  Every loop-form registry kernel under every unroll
     policy, validated end to end: constant trips execute concretely,
     so the verdict must be Valid — the digest fallback that used to
     answer Unknown on partial unrolls is gone.  Criterion:
     loop_valid_rate >= 0.9 with zero Mismatch.  And inductive
     capture gives loop kernels semantic cache keys: each
     loop/straight-line twin pair must share one, so a warm snslpd
     answers the twin as a semantic hit. *)
  pr "%s" (Table.section "Static analysis: loop validation sweep (registry loop kernels)");
  let lvalid = ref 0 and lunknown = ref 0 and lmismatch = ref 0 in
  let policies =
    [
      ("none", Config.No_unroll);
      ("by2", Config.Unroll_by 2);
      ("by4", Config.Unroll_by 4);
      ("auto", Config.Unroll_auto);
    ]
  in
  let loop_rows =
    List.map
      (fun ((lk : Registry.t), _) ->
        let func = Snslp_frontend.Frontend.compile_one lk.Registry.source in
        lk.Registry.name
        :: List.map
             (fun (_, unroll) ->
               let setting = Some { Config.snslp with Config.unroll } in
               let r = Pipeline.run ~setting ~validate:true func in
               let v = Option.get r.Pipeline.validation in
               (match v.Pipeline.end_verdict with
               | Snslp_lint.Validate.Valid -> incr lvalid
               | Snslp_lint.Validate.Unknown _ -> incr lunknown
               | Snslp_lint.Validate.Mismatch _ -> incr lmismatch);
               Snslp_lint.Validate.verdict_to_string v.Pipeline.end_verdict)
             policies)
      Registry.loop_pairs
  in
  emit ~name:"lint_loop_sweep"
    ~headers:("loop kernel" :: List.map fst policies)
    loop_rows;
  let loop_total = !lvalid + !lunknown + !lmismatch in
  let loop_valid_rate = float_of_int !lvalid /. float_of_int (max loop_total 1) in
  let sem_hits, sem_total =
    List.fold_left
      (fun (hits, total) ((lk : Registry.t), (tw : Registry.t)) ->
        let fingerprint = Config.fingerprint Config.snslp in
        let fl = Snslp_frontend.Frontend.compile_one lk.Registry.source in
        let ft = Snslp_frontend.Frontend.compile_one tw.Registry.source in
        let semantic =
          match Snslp_lint.Semhash.of_func fl with
          | Snslp_lint.Semhash.Semantic _ -> true
          | Snslp_lint.Semhash.Structural _ -> false
        in
        let shares =
          String.equal
            (Snslp_lint.Semhash.cache_key ~fingerprint fl)
            (Snslp_lint.Semhash.cache_key ~fingerprint ft)
          && not
               (String.equal
                  (Snslp_lint.Semhash.structural_digest fl)
                  (Snslp_lint.Semhash.structural_digest ft))
        in
        ((if semantic && shares then hits + 1 else hits), total + 1))
      (0, 0) Registry.loop_pairs
  in
  let loops_ok = loop_valid_rate >= 0.9 && !lmismatch = 0 && sem_hits = sem_total in
  pr "  loop verdicts: %d valid / %d unknown / %d mismatch, valid rate %.3f %s@." !lvalid
    !lunknown !lmismatch loop_valid_rate
    (if loop_valid_rate >= 0.9 && !lmismatch = 0 then "(criterion >= 0.9: PASS)"
     else "(criterion >= 0.9: FAIL)");
  pr "  semantic cache: %d/%d loop/twin pairs share a sem: key %s@." sem_hits sem_total
    (if sem_hits = sem_total then "(criterion all: PASS)" else "(criterion all: FAIL)");
  Json.write "BENCH_lint.json"
    (Json.Obj
       [
         ("schema", Json.String "snslp-lint/1");
         ("seeds", Json.Int seeds);
         ("configs", Json.List (List.map (fun (n, _) -> Json.String n) settings));
         ("validate_seconds_total", Json.Float !tot_validate);
         ("slp_seconds_total", Json.Float !tot_slp);
         ("overhead_ratio", Json.Float ratio);
         ("verdicts_total", Json.Int total);
         ("valid", Json.Int !valid);
         ("unknown", Json.Int !unknown);
         ("mismatch", Json.Int !mismatch);
         ("unknown_rate", Json.Float unknown_rate);
         ("graph_findings", Json.Int !graph_bad);
         ( "mismatch_examples",
           Json.List (List.rev_map (fun e -> Json.String e) !examples) );
         ("loop_verdicts_total", Json.Int loop_total);
         ("loop_valid", Json.Int !lvalid);
         ("loop_unknown", Json.Int !lunknown);
         ("loop_mismatch", Json.Int !lmismatch);
         ("loop_valid_rate", Json.Float loop_valid_rate);
         ("loop_semantic_pairs_shared", Json.Int sem_hits);
         ("loop_semantic_pairs_total", Json.Int sem_total);
         ("loop_semantic_shared", Json.Bool (sem_hits = sem_total));
         ( "headline",
           Json.Obj
             [
               ( "criterion",
                 Json.String
                   "zero Mismatch verdicts and zero graph-invariant violations \
                    across the seed sweep and the registry kernels; aggregate \
                    validator time <= 25% of vectorize time; loop kernels \
                    validate Valid under every unroll policy at >= 0.9 rate \
                    with zero Mismatch; every loop/twin pair shares a \
                    semantic cache key" );
               ("pass", Json.Bool (overhead_ok && sweep_ok && loops_ok));
             ] );
       ]);
  pr "  wrote BENCH_lint.json@.";
  if not (overhead_ok && sweep_ok && loops_ok) then exit 1

let lint () = lint_report ~seeds:1000 ~rounds:3 ()

(* --- Interpreter engines: tree-walker vs compiled closures -------------------

   The compiled closure execution engine (docs/INTERP.md) stages each
   function once into slot-addressed closures and replays the plan.
   Three measurements on the registry kernels:

   1. ns/instr per kernel for both engines (plan staged once, untimed;
      the loop replays it), with an executed-instruction-count
      cross-check between the engines;
   2. oracle-case throughput — the headline: one case is the oracle's
      per-case work on a kernel (reference run plus every pipeline
      configuration, template memory restored in place per run, a
      final-memory diff per configuration) with pipeline compilation
      hoisted out; the compiled engine stages its plans inside the
      case, as the oracle does;
   3. an informational fuzz-campaign clock per oracle engine.

   Criterion: >= 3x oracle-case throughput, compiled vs tree. *)

module Interp = Snslp_interp.Interp
module IMemory = Snslp_interp.Memory

(* Best-of-[rounds] wall seconds for [run], after one warm-up. *)
let best_of ~rounds run =
  run ();
  let best = ref infinity in
  for _ = 1 to rounds do
    let t0 = Stats.now_s () in
    run ();
    let dt = Stats.now_s () -. t0 in
    if dt < !best then best := dt
  done;
  !best

(* Replay [func] over the workload's iteration space on the chosen
   engine, returning executed instructions.  For the compiled engine
   the caller decides whether plan staging is inside the timed
   region. *)
let run_workload_tree (wl : Workload.t) func memory =
  let instrs = ref 0 in
  for it = 0 to wl.Workload.iters - 1 do
    instrs :=
      !instrs
      + Interp.exec ~engine:Interp.Tree func ~args:(Workload.make_args wl func it)
          ~memory
  done;
  !instrs

let run_workload_plan (wl : Workload.t) func plan memory =
  let instrs = ref 0 in
  for it = 0 to wl.Workload.iters - 1 do
    instrs := !instrs + Interp.execute plan ~args:(Workload.make_args wl func it) ~memory
  done;
  !instrs

let interp_report ~kernels ~iters ~oracle_iters ~oracle_reps ~rounds ~campaign_cases ()
    =
  pr "%s" (Table.section "Interp: tree-walker vs compiled closure engine");
  (* Part 1: ns/instr per kernel. *)
  let kernel_rows =
    List.map
      (fun (k : Registry.t) ->
        let wl = Workload.prepare ~iters k in
        let func = wl.Workload.func in
        let memory = Workload.fresh_memory wl func in
        let template = IMemory.snapshot memory in
        let instrs_tree = ref 0 and instrs_comp = ref 0 in
        let tree_s =
          best_of ~rounds (fun () ->
              IMemory.restore ~template memory;
              instrs_tree := run_workload_tree wl func memory)
        in
        let plan = Interp.compile func in
        let comp_s =
          best_of ~rounds (fun () ->
              IMemory.restore ~template memory;
              instrs_comp := run_workload_plan wl func plan memory)
        in
        if !instrs_tree <> !instrs_comp then begin
          pr "  !! %s: engines executed different instruction counts (%d vs %d)@."
            k.Registry.name !instrs_tree !instrs_comp;
          exit 1
        end;
        let ns s = s *. 1e9 /. float_of_int (max 1 !instrs_tree) in
        (k.Registry.name, !instrs_tree, ns tree_s, ns comp_s))
      kernels
  in
  emit ~name:"interp-kernels"
    ~headers:[ "kernel"; "instrs/run"; "tree ns/instr"; "compiled ns/instr"; "speedup" ]
    (List.map
       (fun (name, instrs, tns, cns) ->
         [
           name;
           string_of_int instrs;
           Printf.sprintf "%.1f" tns;
           Printf.sprintf "%.1f" cns;
           Printf.sprintf "%.2fx" (tns /. cns);
         ])
       kernel_rows);
  (* Part 2: oracle-case throughput.  Pipeline compilation (the
     optimizer) is hoisted out; the per-case engine work — executions,
     memory restores, final-memory diffs — is timed. *)
  let cases =
    List.map
      (fun (k : Registry.t) ->
        let wl = Workload.prepare ~iters:oracle_iters k in
        let func = wl.Workload.func in
        let opts = List.map (fun (_, setting) -> compile setting func) settings in
        let template = Workload.fresh_memory wl func in
        let ref_scratch = IMemory.snapshot template in
        let opt_scratch = IMemory.snapshot template in
        (wl, func, opts, template, ref_scratch, opt_scratch))
      kernels
  in
  let mismatches = ref 0 in
  let oracle_pass ~compiled () =
    List.iter
      (fun (wl, func, opts, template, ref_scratch, opt_scratch) ->
        let run f memory =
          if compiled then ignore (run_workload_plan wl f (Interp.compile f) memory)
          else ignore (run_workload_tree wl f memory)
        in
        IMemory.restore ~template ref_scratch;
        run func ref_scratch;
        List.iter
          (fun opt ->
            IMemory.restore ~template opt_scratch;
            run opt opt_scratch;
            match IMemory.diff_nan_safe ~tolerance:1e-6 ref_scratch opt_scratch with
            | None -> ()
            | Some d ->
                incr mismatches;
                pr "  !! oracle mismatch (%s): %s@." wl.Workload.kernel.Registry.name d)
          opts)
      cases
  in
  let time_passes ~compiled =
    oracle_pass ~compiled ();
    let t0 = Stats.now_s () in
    for _ = 1 to oracle_reps do
      oracle_pass ~compiled ()
    done;
    Stats.now_s () -. t0
  in
  let tree_oracle_s = time_passes ~compiled:false in
  let comp_oracle_s = time_passes ~compiled:true in
  let ncases = oracle_reps * List.length cases in
  let per_s s = float_of_int ncases /. Float.max s 1e-9 in
  let oracle_speedup = per_s comp_oracle_s /. per_s tree_oracle_s in
  emit ~name:"interp-oracle"
    ~headers:[ "oracle cases"; "tree cases/s"; "compiled cases/s"; "speedup" ]
    [
      [
        string_of_int ncases;
        Printf.sprintf "%.1f" (per_s tree_oracle_s);
        Printf.sprintf "%.1f" (per_s comp_oracle_s);
        Printf.sprintf "%.2fx" oracle_speedup;
      ];
    ];
  (* Part 3: the fuzz campaign under each oracle engine
     (informational; the campaign's own generation and pipeline work
     dominate, so ratios here are conservative). *)
  let campaign_rows =
    List.map
      (fun engine ->
        let result =
          Snslp_fuzzer.Campaign.run ~engine ~reduce:false ~seed:7 ~cases:campaign_cases
            ()
        in
        if not (Snslp_fuzzer.Campaign.clean result) then begin
          pr "  !! campaign under engine %s found %d failing cases@."
            result.Snslp_fuzzer.Campaign.engine
            (List.length result.Snslp_fuzzer.Campaign.reports);
          exit 1
        end;
        let ns =
          if result.Snslp_fuzzer.Campaign.exec_instrs = 0 then 0.0
          else
            result.Snslp_fuzzer.Campaign.exec_seconds *. 1e9
            /. float_of_int result.Snslp_fuzzer.Campaign.exec_instrs
        in
        ( result.Snslp_fuzzer.Campaign.engine,
          float_of_int campaign_cases
          /. Float.max result.Snslp_fuzzer.Campaign.elapsed_seconds 1e-9,
          ns ))
      [ Snslp_fuzzer.Oracle.Tree; Snslp_fuzzer.Oracle.Compiled; Snslp_fuzzer.Oracle.Cross ]
  in
  emit ~name:"interp-campaign"
    ~headers:[ "engine"; "campaign cases/s"; "exec ns/instr" ]
    (List.map
       (fun (name, cps, ns) ->
         [ name; Printf.sprintf "%.0f" cps; Printf.sprintf "%.0f" ns ])
       campaign_rows);
  let pass = oracle_speedup >= 3.0 && !mismatches = 0 in
  pr "  oracle-case speedup %.2fx %s@." oracle_speedup
    (if pass then "(criterion >= 3x: PASS)" else "(criterion >= 3x: FAIL)");
  Json.write "BENCH_interp.json"
    (Json.Obj
       [
         ("schema", Json.String "snslp-interp/1");
         ("iters", Json.Int iters);
         ("oracle_iters", Json.Int oracle_iters);
         ( "kernels",
           Json.List
             (List.map
                (fun (name, instrs, tns, cns) ->
                  Json.Obj
                    [
                      ("name", Json.String name);
                      ("instrs_per_run", Json.Int instrs);
                      ("tree_ns_per_instr", Json.Float tns);
                      ("compiled_ns_per_instr", Json.Float cns);
                      ("speedup", Json.Float (tns /. cns));
                    ])
                kernel_rows) );
         ( "oracle",
           Json.Obj
             [
               ("cases", Json.Int ncases);
               ("tree_cases_per_s", Json.Float (per_s tree_oracle_s));
               ("compiled_cases_per_s", Json.Float (per_s comp_oracle_s));
               ("speedup", Json.Float oracle_speedup);
               ("mismatches", Json.Int !mismatches);
             ] );
         ( "campaign",
           Json.List
             (List.map
                (fun (name, cps, ns) ->
                  Json.Obj
                    [
                      ("engine", Json.String name);
                      ("cases_per_second", Json.Float cps);
                      ("exec_ns_per_instr", Json.Float ns);
                    ])
                campaign_rows) );
         ( "headline",
           Json.Obj
             [
               ( "criterion",
                 Json.String
                   ">= 3x oracle-case throughput (compiled vs tree-walker) on the \
                    registry kernels" );
               ("pass", Json.Bool pass);
             ] );
       ]);
  pr "  wrote BENCH_interp.json@.";
  if not pass then exit 1

let interp () =
  interp_report ~kernels:Registry.all ~iters:64 ~oracle_iters:256 ~oracle_reps:3
    ~rounds:3 ~campaign_cases:300 ()

(* --- Compile service: semantic cache and daemon throughput --------------------

   The snslpd service benchmark (BENCH_service.json):

   1. registry replay through the protocol loop, cold server vs warm
      cache — the headline, criterion >= 5x;
   2. semantic equivalence: structurally distinct but equivalent
      sources answered from one cache entry (>= 1 hit-semantic);
   3. sustained single-request throughput and latency percentiles on
      a fresh server (first round cold, the rest warm). *)

module Service = Snslp_service.Server
module Scache = Snslp_service.Cache
module Sproto = Snslp_service.Protocol

let compile_frame mode src =
  let lines = String.split_on_char '\n' (String.trim src) in
  Printf.sprintf "compile %s %d" mode (List.length lines) :: lines

(* Run one whole protocol conversation against [server] from a queue
   of request lines; returns the response lines. *)
let converse server lines =
  let inq = Queue.create () in
  List.iter (fun l -> Queue.add l inq) lines;
  let out = ref [] in
  Service.serve server
    ~reader:(fun () -> Queue.take_opt inq)
    ~writer:(fun l -> out := l :: !out);
  List.rev !out

let responses_of lines =
  let q = Queue.create () in
  List.iter (fun l -> Queue.add l q) lines;
  let rec go acc =
    match Sproto.read_response (fun () -> Queue.take_opt q) with
    | None -> List.rev acc
    | Some (Ok r) -> go (r :: acc)
    | Some (Error e) ->
        pr "  !! malformed service response: %s@." e;
        exit 1
  in
  go []

let compiled_irs lines =
  List.filter_map
    (function Sproto.Compiled { ir; _ } -> Some ir | _ -> None)
    (responses_of lines)

let compiled_statuses lines =
  List.concat_map
    (function Sproto.Compiled { statuses; _ } -> statuses | _ -> [])
    (responses_of lines)

(* Structurally different, semantically equal source pairs: the cache
   must answer the second from the first's entry. *)
let semantic_pairs =
  [
    ( "reassoc-add-sub",
      {|
kernel reassoc(long A[], long B[], long C[], long D[], long i) {
  A[i+0] = B[i+0] - C[i+0] + D[i+0];
  A[i+1] = D[i+1] - C[i+1] + B[i+1];
}
|},
      {|
kernel reassoc(long A[], long B[], long C[], long D[], long i) {
  A[i+0] = D[i+0] + B[i+0] - C[i+0];
  A[i+1] = B[i+1] - C[i+1] + D[i+1];
}
|} );
    ( "mul-div-cancel",
      {|
kernel cancel(float A[], float B[], float C[], long i) {
  A[i+0] = B[i+0] * C[i+0] / C[i+0];
  A[i+1] = B[i+1] * C[i+1] / C[i+1];
}
|},
      {|
kernel cancel(float A[], float B[], float C[], long i) {
  A[i+0] = B[i+0];
  A[i+1] = B[i+1];
}
|} );
  ]

let percentile p xs =
  match xs with
  | [] -> 0.0
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1)))

let service_report ~kernels ~replay_rounds ~rounds () =
  pr "%s" (Table.section "Service: snslpd compile cache (cold vs warm registry replay)");
  (* Part 1: the whole registry as one batch through the protocol
     loop.  The first conversation compiles everything; repeats cost
     parsing, hashing and printing only. *)
  let server = Service.create () in
  let batch_lines =
    (Printf.sprintf "batch %d" (List.length kernels)
    :: List.concat_map
         (fun (k : Registry.t) -> compile_frame "sn-slp" k.Registry.source)
         kernels)
    @ [ "quit" ]
  in
  let time_conv lines =
    let t0 = Stats.now_s () in
    let out = converse server lines in
    (Stats.now_s () -. t0, out)
  in
  let cold_s, cold_out = time_conv batch_lines in
  let warm_s = ref infinity and warm_out = ref [] in
  for _ = 1 to rounds do
    let dt, out = time_conv batch_lines in
    if dt < !warm_s then begin
      warm_s := dt;
      warm_out := out
    end
  done;
  let warm_s = !warm_s in
  (* A cache answer must be byte-identical to the fresh compile. *)
  let bit_identical = compiled_irs cold_out = compiled_irs !warm_out in
  if not bit_identical then pr "  !! warm replay IR differs from cold (FAIL)@.";
  (* Two registry kernels may legitimately share a semantic entry —
     the warm guard only requires that nothing recompiles. *)
  let warm_all_hits =
    List.for_all
      (fun s -> s = "hit-textual" || s = "hit-semantic")
      (compiled_statuses !warm_out)
  in
  if not warm_all_hits then pr "  !! warm replay missed the cache (FAIL)@.";
  let warm_speedup = cold_s /. Float.max warm_s 1e-9 in
  emit ~name:"service-replay"
    ~headers:[ "phase"; "kernels"; "wall ms"; "speedup" ]
    [
      [ "cold"; string_of_int (List.length kernels); Printf.sprintf "%.2f" (cold_s *. 1e3); "1.00x" ];
      [
        "warm";
        string_of_int (List.length kernels);
        Printf.sprintf "%.2f" (warm_s *. 1e3);
        Printf.sprintf "%.2fx" warm_speedup;
      ];
    ];
  (* Part 2: semantic hits — the variant compiles to an answer the
     cache already holds under a different structure. *)
  let sem_rows =
    List.map
      (fun (name, original, variant) ->
        let status resp =
          match resp with
          | Sproto.Compiled { statuses; _ } -> String.concat "," statuses
          | Sproto.Err e -> "err: " ^ e
          | Sproto.Stats_reply _ -> "?"
        in
        let first = status (List.hd (Service.handle_batch server [ Ok ("sn-slp", original) ])) in
        let second = status (List.hd (Service.handle_batch server [ Ok ("sn-slp", variant) ])) in
        (name, first, second))
      semantic_pairs
  in
  emit ~name:"service-semantic"
    ~headers:[ "equivalence pair"; "original"; "variant" ]
    (List.map (fun (n, a, b) -> [ n; a; b ]) sem_rows);
  let semantic_hits =
    List.length (List.filter (fun (_, _, b) -> b = "hit-semantic") sem_rows)
  in
  (* Part 3: sustained single-request stream on a fresh server — the
     first round is all misses, the rest all hits; latency is per
     request as a synchronous client observes it. *)
  let tserver = Service.create () in
  let stream =
    List.concat
      (List.init replay_rounds (fun _ ->
           List.concat_map
             (fun (k : Registry.t) -> compile_frame "sn-slp" k.Registry.source)
             kernels))
    @ [ "quit" ]
  in
  let t0 = Stats.now_s () in
  let _ = converse tserver stream in
  let elapsed = Stats.now_s () -. t0 in
  let nreq = replay_rounds * List.length kernels in
  let kps = float_of_int nreq /. Float.max elapsed 1e-9 in
  let lat = Service.latencies_s tserver in
  let p50 = percentile 50.0 lat and p99 = percentile 99.0 lat in
  let c = Scache.counters (Service.cache tserver) in
  emit ~name:"service-throughput"
    ~headers:[ "requests"; "kernels/s"; "hit rate"; "p50 ms"; "p99 ms" ]
    [
      [
        string_of_int nreq;
        Printf.sprintf "%.0f" kps;
        Printf.sprintf "%.2f" (Scache.hit_rate c);
        Printf.sprintf "%.3f" (p50 *. 1e3);
        Printf.sprintf "%.3f" (p99 *. 1e3);
      ];
    ];
  let pass = warm_speedup >= 5.0 && semantic_hits >= 1 && bit_identical && warm_all_hits in
  pr "  warm replay speedup %.2fx %s@." warm_speedup
    (if warm_speedup >= 5.0 then "(criterion >= 5x: PASS)" else "(criterion >= 5x: FAIL)");
  pr "  semantic cache hits: %d/%d pairs %s@." semantic_hits (List.length sem_rows)
    (if semantic_hits >= 1 then "(criterion >= 1: PASS)" else "(criterion >= 1: FAIL)");
  Json.write "BENCH_service.json"
    (Json.Obj
       [
         ("schema", Json.String "snslp-service/1");
         ( "replay",
           Json.Obj
             [
               ("kernels", Json.Int (List.length kernels));
               ("cold_s", Json.Float cold_s);
               ("warm_best_s", Json.Float warm_s);
               ("warm_speedup", Json.Float warm_speedup);
               ("warm_all_hits", Json.Bool warm_all_hits);
               ("bit_identical", Json.Bool bit_identical);
             ] );
         ( "semantic",
           Json.List
             (List.map
                (fun (name, first, second) ->
                  Json.Obj
                    [
                      ("pair", Json.String name);
                      ("original", Json.String first);
                      ("variant", Json.String second);
                    ])
                sem_rows) );
         ( "throughput",
           Json.Obj
             [
               ("requests", Json.Int nreq);
               ("elapsed_s", Json.Float elapsed);
               ("kernels_per_sec", Json.Float kps);
               ("hit_rate", Json.Float (Scache.hit_rate c));
               ("p50_ms", Json.Float (p50 *. 1e3));
               ("p99_ms", Json.Float (p99 *. 1e3));
               ("hits_semantic", Json.Int c.Scache.hits_semantic);
               ("hits_textual", Json.Int c.Scache.hits_textual);
               ("misses", Json.Int c.Scache.misses);
             ] );
         ( "headline",
           Json.Obj
             [
               ("warm_speedup", Json.Float warm_speedup);
               ("semantic_hits", Json.Int semantic_hits);
               ( "criterion",
                 Json.String
                   "warm registry replay >= 5x cold through the service loop; >= 1 \
                    semantic (not just textual) cache hit; cached answers \
                    byte-identical to fresh compiles" );
               ("pass", Json.Bool pass);
             ] );
       ]);
  pr "  wrote BENCH_service.json@.";
  if not pass then exit 1

let service () = service_report ~kernels:Registry.all ~replay_rounds:20 ~rounds:5 ()

(* --- Loop subsystem: BENCH_loops.json ---------------------------------------- *)

(* The loop-form registry kernels against their straight-line twins
   (docs/LOOPS.md): simulated cycles of the scalar loop (-O3, loops
   kept) vs the full unroll → unroll-and-jam → SN-SLP pipeline, plus
   the twin compiled through the identical pipeline.  The criteria:
   - every loop form fully unrolls (no residual back edge to hide
     behind) and its interpreted output is bit-identical to its
     twin's — the end-to-end contract of the loop subsystem;
   - at least [min_wins] loop kernels beat their scalar loop by >= 2x
     simulated cycles.  The win has two ingredients the table
     separates: unrolling alone retires the per-iteration phi/compare/
     branch/increment overhead, and vectorization then halves the
     arithmetic — milc_mat_vec_loop (cost-model-rejected, like its
     8-site parent) shows how far overhead removal alone gets. *)
let loops_report ~(pairs : (Registry.t * Registry.t) list) ~iters ~min_wins () =
  pr "%s"
    (Table.section
       (Printf.sprintf
          "Loop subsystem: scalar loop vs unroll + SN-SLP (%d loop/twin pairs)"
          (List.length pairs)));
  let snslp = Some Config.snslp in
  let measured =
    List.map
      (fun ((lk : Registry.t), (tw : Registry.t)) ->
        let wl = Workload.prepare ~iters lk in
        let wt = Workload.prepare ~iters tw in
        let scalar_cyc, _ = simulate wl None in
        let sn_cyc, _ = simulate wl snslp in
        let twin_cyc, _ = simulate wt snslp in
        let lr = Pipeline.run ~setting:snslp wl.Workload.func in
        let unrolled_full =
          match lr.Pipeline.vect_report with
          | Some rep -> rep.Vectorize.stats.Stats.loops_unrolled_full
          | None -> 0
        in
        let parity =
          IMemory.equal
            (Workload.run_interp wl lr.Pipeline.func)
            (Workload.run_interp wt (compile snslp wt.Workload.func))
        in
        (lk, tw, scalar_cyc, sn_cyc, twin_cyc, unrolled_full, parity))
      pairs
  in
  let rows =
    List.map
      (fun ((lk : Registry.t), (tw : Registry.t), sc, sn, twc, uf, parity) ->
        [
          lk.Registry.name;
          tw.Registry.name;
          Printf.sprintf "%.0f" sc;
          Printf.sprintf "%.0f" sn;
          Printf.sprintf "%.3fx" (sc /. sn);
          Printf.sprintf "%.0f" twc;
          string_of_int uf;
          (if parity then "bit-identical" else "MISMATCH");
        ])
      measured
  in
  emit ~name:"loops"
    ~headers:
      [
        "loop kernel"; "twin"; "scalar cyc"; "sn-slp cyc"; "speedup"; "twin cyc";
        "unrolled"; "parity";
      ]
    rows;
  let wins =
    List.length (List.filter (fun (_, _, sc, sn, _, _, _) -> sc /. sn >= 2.0) measured)
  in
  let parity_all = List.for_all (fun (_, _, _, _, _, _, p) -> p) measured in
  let unrolled_all = List.for_all (fun (_, _, _, _, _, uf, _) -> uf >= 1) measured in
  let pass = wins >= min_wins && parity_all && unrolled_all in
  pr "  full unroll everywhere: %s; twin parity everywhere: %s; >= 2x wins: %d \
      (need >= %d)@."
    (if unrolled_all then "yes" else "NO")
    (if parity_all then "yes" else "NO")
    wins min_wins;
  pr "  criteria: %s@." (if pass then "PASS" else "FAIL");
  let kernel_json ((lk : Registry.t), (tw : Registry.t), sc, sn, twc, uf, parity) =
    Json.Obj
      [
        ("name", Json.String lk.Registry.name);
        ("twin", Json.String tw.Registry.name);
        ("scalar_cycles", Json.Float sc);
        ("snslp_cycles", Json.Float sn);
        ("speedup", Json.Float (sc /. sn));
        ("twin_cycles", Json.Float twc);
        ("unrolled_full", Json.Int uf);
        ("twin_parity", Json.Bool parity);
      ]
  in
  Json.write "BENCH_loops.json"
    (Json.Obj
       [
         ("schema", Json.String "snslp-loops/1");
         ("iters", Json.Int iters);
         ("kernels", Json.List (List.map kernel_json measured));
         ( "headline",
           Json.Obj
             [
               ("full_unroll_everywhere", Json.Bool unrolled_all);
               ("twin_parity_everywhere", Json.Bool parity_all);
               ("wins_2x", Json.Int wins);
               ("min_wins", Json.Int min_wins);
               ( "criterion",
                 Json.String
                   "every loop form fully unrolls and matches its twin bit for bit; >= \
                    min_wins loop kernels beat their scalar loop by >= 2x simulated \
                    cycles" );
               ("pass", Json.Bool pass);
             ] );
       ]);
  pr "  wrote BENCH_loops.json@.";
  if not pass then exit 1

let loops () = loops_report ~pairs:Registry.loop_pairs ~iters:1024 ~min_wins:3 ()

(* --- Multi-target sweep and revec: BENCH_targets.json ------------------------ *)

(* Every registry kernel compiled for every backend flavour, with and
   without the revec re-widening pass.  Per variant: machine-model
   static cost (the common x86 simulator model, issue-width scaled by
   the variant's target, so numbers compare across backends),
   interpreted-memory bit-identity against the sse baseline compile
   (lane width and revec must never change what gets computed;
   scalar-vs-vectorized equivalence is the differential oracle's and
   the validator's job, with the float tolerance that reassociating
   super-nodes need), and a translation-validator run with zero
   Mismatch verdicts tolerated.
   A rejuvenation section replays Revec's headline scenario — IR
   vectorized for sse re-fed through the pipeline at avx512, where
   scalar SLP finds nothing and revec does the widening.  Criteria:
   - every (kernel, target, revec) variant is bit-identical under the
     interpreter, rejuvenated variants included;
   - the validator reports zero Mismatch verdicts anywhere;
   - revec is never worse: per (kernel, target), revec-on static cost
     <= revec-off, and every rejuvenated compile <= its narrow input;
   - the best variant of the sweep never loses to the sse baseline;
   - >= [min_wins] kernels where avx512+revec strictly beats the sse
     baseline, with >= [speedup_threshold] on at least one;
   - rejuvenation actually fires (pairs > 0 somewhere). *)
let sweep_targets = [ Target.sse; Target.avx2; Target.avx512; Target.neon ]

let target_config (tgt : Target.t) revec =
  {
    Config.snslp with
    Config.target = tgt;
    model = Model.for_target tgt;
    revec;
  }

let mismatches_of (result : Pipeline.result) =
  match result.Pipeline.validation with
  | None -> 0
  | Some v ->
      let bad = function
        | Snslp_lint.Validate.Mismatch _ -> true
        | Snslp_lint.Validate.Valid | Snslp_lint.Validate.Unknown _ -> false
      in
      List.length (List.filter (fun (_, verdict) -> bad verdict) v.Pipeline.pass_verdicts)
      + (if bad v.Pipeline.end_verdict then 1 else 0)
      + List.length v.Pipeline.graph_findings

let max_lanes_of (f : Snslp_ir.Defs.func) =
  Snslp_ir.Func.fold_instrs
    (fun acc (i : Snslp_ir.Defs.instr) -> max acc (Snslp_ir.Ty.lanes i.Snslp_ir.Defs.ty))
    1 f

let targets_report ~(kernels : Registry.t list) ~min_wins ~speedup_threshold () =
  pr "%s"
    (Table.section
       (Printf.sprintf "Multi-target sweep + revec (%d kernels x %d targets x 2)"
          (List.length kernels) (List.length sweep_targets)));
  let eps = 1e-6 in
  let mismatches = ref 0 in
  (* One variant: full pipeline at [tgt] on [func], validated, priced
     and interpreted against [reference]. *)
  let variant ~wl ~reference ~(tgt : Target.t) ~revec func =
    let cfg = target_config tgt revec in
    let result = Pipeline.run ~setting:(Some cfg) ~validate:true func in
    mismatches := !mismatches + mismatches_of result;
    let opt = result.Pipeline.func in
    let stats =
      match result.Pipeline.vect_report with
      | Some rep -> rep.Vectorize.stats
      | None -> Stats.create ()
    in
    let identical = IMemory.equal reference (Workload.run_interp wl opt) in
    ( tgt,
      revec,
      Packing.static_cost cfg opt,
      opt,
      identical,
      stats.Stats.revec_pairs,
      stats.Stats.revec_widened )
  in
  let measured =
    List.map
      (fun (k : Registry.t) ->
        let wl = Workload.prepare k in
        (* The identity reference: what the sse baseline computes.
           The sweep's own sse variant recompiles deterministically to
           the same IR, so it trivially matches — the assertion bites
           on every *other* width and on revec. *)
        let reference =
          Workload.run_interp wl
            (compile (Some (target_config Target.sse false)) wl.Workload.func)
        in
        let variants =
          List.concat_map
            (fun tgt ->
              List.map
                (fun revec -> variant ~wl ~reference ~tgt ~revec wl.Workload.func)
                [ false; true ])
            sweep_targets
        in
        (k, variants))
      kernels
  in
  let cost_of variants (tgt : Target.t) revec =
    let _, _, c, _, _, _, _ =
      List.find (fun (t, r, _, _, _, _, _) -> t == tgt && r = revec) variants
    in
    c
  in
  let best_of variants =
    List.fold_left
      (fun (bt, br, bc) (t, r, c, _, _, _, _) ->
        if c < bc -. eps then ((t : Target.t), r, c) else (bt, br, bc))
      (Target.sse, false, cost_of variants Target.sse false)
      variants
  in
  let rows =
    List.map
      (fun ((k : Registry.t), variants) ->
        let sse = cost_of variants Target.sse false in
        let bt, br, bc = best_of variants in
        [
          k.Registry.name;
          Printf.sprintf "%.1f" sse;
          Printf.sprintf "%.1f" (cost_of variants Target.avx2 false);
          Printf.sprintf "%.1f" (cost_of variants Target.avx512 false);
          Printf.sprintf "%.1f" (cost_of variants Target.neon false);
          Printf.sprintf "%.1f" (cost_of variants Target.avx512 true);
          Printf.sprintf "%s%s" bt.Target.name (if br then "+revec" else "");
          Printf.sprintf "%.2fx" (sse /. Float.max bc eps);
        ])
      measured
  in
  emit ~name:"targets"
    ~headers:
      [ "kernel"; "sse"; "avx2"; "avx512"; "neon"; "avx512+rv"; "best"; "vs sse" ]
    rows;
  (* Rejuvenation: the sse-vectorized IR re-fed through the pipeline
     at avx512 with revec.  Scalar SLP sees vector stores, not seeds;
     only revec can reach the wide registers. *)
  let rejuvenated =
    List.map
      (fun ((k : Registry.t), _) ->
        let wl = Workload.prepare k in
        let narrow =
          (Pipeline.run ~setting:(Some (target_config Target.sse false)) wl.Workload.func)
            .Pipeline.func
        in
        let reference = Workload.run_interp wl narrow in
        let tgt, _, cost_wide, wide, identical, pairs, widened =
          variant ~wl ~reference ~tgt:Target.avx512 ~revec:true narrow
        in
        ignore tgt;
        let cost_narrow = Packing.static_cost (target_config Target.avx512 true) narrow in
        (k, pairs, widened, cost_narrow, cost_wide, max_lanes_of wide, identical))
      measured
  in
  let rejuv_rows =
    List.map
      (fun ((k : Registry.t), pairs, widened, cn, cw, lanes, identical) ->
        [
          k.Registry.name;
          string_of_int pairs;
          string_of_int widened;
          Printf.sprintf "%.1f" cn;
          Printf.sprintf "%.1f" cw;
          string_of_int lanes;
          (if identical then "yes" else "NO");
        ])
      rejuvenated
  in
  emit ~name:"targets_rejuvenation"
    ~headers:[ "kernel"; "pairs"; "widened"; "cost before"; "after"; "lanes"; "bit-identical" ]
    rejuv_rows;
  (* Headline criteria. *)
  let all_identical =
    List.for_all
      (fun (_, variants) -> List.for_all (fun (_, _, _, _, ok, _, _) -> ok) variants)
      measured
    && List.for_all (fun (_, _, _, _, _, _, ok) -> ok) rejuvenated
  in
  let revec_never_worse =
    List.for_all
      (fun (_, variants) ->
        List.for_all
          (fun tgt -> cost_of variants tgt true <= cost_of variants tgt false +. eps)
          sweep_targets)
      measured
    && List.for_all (fun (_, _, _, cn, cw, _, _) -> cw <= cn +. eps) rejuvenated
  in
  let best_never_worse =
    List.for_all
      (fun (_, variants) ->
        let _, _, bc = best_of variants in
        bc <= cost_of variants Target.sse false +. eps)
      measured
  in
  let wins =
    List.filter
      (fun (_, variants) ->
        cost_of variants Target.avx512 true < cost_of variants Target.sse false -. eps)
      measured
  in
  let max_speedup =
    List.fold_left
      (fun acc (_, variants) ->
        Float.max acc
          (cost_of variants Target.sse false
          /. Float.max (cost_of variants Target.avx512 true) eps))
      1.0 wins
  in
  let rejuv_fires = List.exists (fun (_, pairs, _, _, _, _, _) -> pairs > 0) rejuvenated in
  let pass =
    all_identical && !mismatches = 0 && revec_never_worse && best_never_worse
    && List.length wins >= min_wins
    && max_speedup >= speedup_threshold && rejuv_fires
  in
  pr
    "  bit-identical: %s; validator mismatches: %d; revec never worse: %s; best \
     never worse than sse: %s@."
    (if all_identical then "all" else "NO") !mismatches
    (if revec_never_worse then "yes" else "NO")
    (if best_never_worse then "yes" else "NO");
  pr "  avx512+revec wins vs sse: %d (need >= %d), max speedup %.2fx (need >= %.1fx); \
      rejuvenation fires: %s@."
    (List.length wins) min_wins max_speedup speedup_threshold
    (if rejuv_fires then "yes" else "NO");
  let variant_json (tgt : Target.t) revec cost opt identical pairs widened =
    Json.Obj
      [
        ("target", Json.String tgt.Target.name);
        ("revec", Json.Bool revec);
        ("cost", Json.Float cost);
        ("instrs", Json.Int (Snslp_ir.Func.num_instrs opt));
        ("max_lanes", Json.Int (max_lanes_of opt));
        ("bit_identical", Json.Bool identical);
        ("revec_pairs", Json.Int pairs);
        ("revec_widened", Json.Int widened);
      ]
  in
  let kernel_json ((k : Registry.t), variants) =
    let sse = cost_of variants Target.sse false in
    let bt, br, bc = best_of variants in
    Json.Obj
      [
        ("name", Json.String k.Registry.name);
        ( "variants",
          Json.List
            (List.map
               (fun (t, r, c, opt, ok, p, w) -> variant_json t r c opt ok p w)
               variants) );
        ( "best",
          Json.Obj
            [
              ("target", Json.String bt.Target.name);
              ("revec", Json.Bool br);
              ("cost", Json.Float bc);
              ("speedup_vs_sse", Json.Float (sse /. Float.max bc eps));
            ] );
      ]
  in
  let rejuv_json ((k : Registry.t), pairs, widened, cn, cw, lanes, identical) =
    Json.Obj
      [
        ("name", Json.String k.Registry.name);
        ("narrow_target", Json.String "sse");
        ("wide_target", Json.String "avx512");
        ("revec_pairs", Json.Int pairs);
        ("revec_widened", Json.Int widened);
        ("cost_narrow", Json.Float cn);
        ("cost_rejuvenated", Json.Float cw);
        ("max_lanes", Json.Int lanes);
        ("bit_identical", Json.Bool identical);
      ]
  in
  Json.write "BENCH_targets.json"
    (Json.Obj
       [
         ("schema", Json.String "snslp-targets/1");
         ( "targets",
           Json.List
             (List.map (fun (t : Target.t) -> Json.String t.Target.name) sweep_targets) );
         ("kernels", Json.List (List.map kernel_json measured));
         ("rejuvenation", Json.List (List.map rejuv_json rejuvenated));
         ( "criteria",
           Json.Obj
             [
               ("all_bit_identical", Json.Bool all_identical);
               ("validator_mismatches", Json.Int !mismatches);
               ("revec_never_worse", Json.Bool revec_never_worse);
               ("best_never_worse_than_sse", Json.Bool best_never_worse);
               ("avx512_revec_wins", Json.Int (List.length wins));
               ("min_wins", Json.Int min_wins);
               ("max_speedup", Json.Float max_speedup);
               ("speedup_threshold", Json.Float speedup_threshold);
               ("rejuvenation_fires", Json.Bool rejuv_fires);
               ( "criterion",
                 Json.String
                   "all variants bit-identical to the sse baseline, zero validator \
                    mismatches, revec and best-of-sweep never worse, avx512+revec \
                    beats sse on >= min_wins kernels with >= threshold once, \
                    rejuvenation pairs > 0" );
               ("pass", Json.Bool pass);
             ] );
       ]);
  pr "  wrote BENCH_targets.json@.";
  if not pass then exit 1

let targets () =
  targets_report ~kernels:Registry.all ~min_wins:3 ~speedup_threshold:1.5 ()

(* Reduced-iteration smoke variant wired into `dune runtest` (see
   bench/dune): exercises the full reporting path, including the JSON
   emission and the shared-state count criterion, in a few seconds. *)
let smoke () =
  let kernels =
    List.filter_map Registry.find [ "milc_su3"; "sphinx_gau_f32"; "milc_mat_vec" ]
  in
  compile_time_report ~rounds:2 ~kernels ();
  (* Tiny jobs=2 sweep: too little work to amortise a domain, so the
     adaptive clamp runs it inline; it keeps the cross-jobs
     determinism guard and the low-core verdict exercised on every
     test run (test_parallel.ml drives the pool itself). *)
  parallel_report ~rounds:2 ~jobs_list:[ 1; 2 ]
    ~kernels:(List.filter_map Registry.find [ "motiv_leaf"; "milc_su3" ])
    ();
  (* Packing smoke: a three-kernel sweep (one engineered strict win
     included) at a small beam keeps the BENCH_packing.json plumbing
     and the never-worse criterion exercised on every test run. *)
  packing_report
    ~kernels:(List.filter_map Registry.find [ "calculix_blend"; "milc_su3"; "motiv_leaf" ])
    ~fuzz_seeds:150 ~beam:2 ~rounds:2 ~min_wins:1 ();
  (* Loop smoke: every loop/twin pair at reduced iteration counts
     keeps the BENCH_loops.json plumbing, the full-unroll guarantee,
     and the twin-parity criterion exercised on every test run (the
     simulator is deterministic, so the >= 2x wins survive the
     reduction). *)
  loops_report ~pairs:Registry.loop_pairs ~iters:64 ~min_wins:3 ();
  (* Target smoke: a reduced width/backend sweep (wide-store kernels
     included so the avx512+revec win and the rejuvenation path stay
     exercised) keeps the BENCH_targets.json plumbing, the
     bit-identity and the zero-Mismatch criteria on every test run. *)
  targets_report
    ~kernels:
      (List.filter_map Registry.find [ "motiv_leaf_x4"; "milc_su3"; "sphinx_gau_f32" ])
    ~min_wins:1 ~speedup_threshold:1.5 ();
  (* Bounded fuzz smoke: fixed seed, a couple hundred cases, the
     parallel determinism axis included; writes BENCH_fuzz.json. *)
  fuzz_report ~seed:42 ~cases:200 ~jobs:2 ();
  (* Engine smoke: a kernel subset with reduced counts keeps the
     BENCH_interp.json plumbing (and the >= 3x oracle-throughput
     criterion) exercised on every test run. *)
  interp_report
    ~kernels:
      (List.filter_map Registry.find [ "milc_su3"; "sphinx_gau_f32"; "milc_mat_vec" ])
    ~iters:16 ~oracle_iters:128 ~oracle_reps:2 ~rounds:1 ~campaign_cases:40 ();
  (* Validator smoke: the registry overhead ratio plus a reduced seed
     sweep keeps the BENCH_lint.json plumbing and the zero-Mismatch
     criterion exercised on every test run. *)
  lint_report ~seeds:150 ~rounds:2 ();
  (* Service smoke: in-process daemon, a cold/warm registry-subset
     replay through the protocol loop and the semantic-hit pairs;
     writes BENCH_service.json. *)
  service_report
    ~kernels:
      (List.filter_map Registry.find [ "motiv_leaf"; "milc_su3"; "milc_mat_vec" ])
    ~replay_rounds:3 ~rounds:2 ();
  pr "bench-smoke OK@."

(* --- Bechamel: statistically sound compile-time microbenchmarks ------------- *)

let bechamel () =
  pr "%s" (Table.section "Bechamel: compile-time microbenchmarks (OLS, monotonic clock)");
  let open Bechamel in
  let open Toolkit in
  let test_of_kernel (k : Registry.t) =
    let func = Snslp_frontend.Frontend.compile_one k.Registry.source in
    List.map
      (fun (name, setting) ->
        Test.make
          ~name:(Printf.sprintf "%s/%s" k.Registry.name name)
          (Staged.stage (fun () -> ignore (Pipeline.run ~setting func))))
      settings
  in
  let tests =
    Test.make_grouped ~name:"compile" ~fmt:"%s %s"
      (List.concat_map test_of_kernel
         [
           Option.get (Registry.find "motiv_leaf");
           Option.get (Registry.find "milc_su3");
           Option.get (Registry.find "namd_elec");
         ])
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some (e :: _) -> Printf.sprintf "%.1f ns" e
        | _ -> "?"
      in
      let r2 =
        match Analyze.OLS.r_square ols_result with
        | Some r -> Printf.sprintf "%.4f" r
        | None -> "-"
      in
      rows := [ name; est; r2 ] :: !rows)
    results;
  let rows = List.sort compare !rows in
  emit ~name:"bechamel" ~headers:[ "benchmark"; "time/run"; "r2" ] rows;
  (* The compile-time headline's workload under the same statistical
     machinery: SN-SLP at depth 3 on the largest registry kernel. *)
  let largest =
    List.fold_left
      (fun best (k : Registry.t) ->
        let n k = Snslp_ir.Func.num_instrs (Snslp_frontend.Frontend.compile_one k.Registry.source) in
        match best with
        | Some (bk, bn) -> let kn = n k in if kn > bn then Some (k, kn) else Some (bk, bn)
        | None -> Some (k, n k))
      None Registry.all
  in
  let (largest : Registry.t), largest_instrs = Option.get largest in
  let lfunc = Snslp_frontend.Frontend.compile_one largest.Registry.source in
  let setting = Some { Config.snslp with Config.lookahead_depth = headline_depth } in
  let test =
    Test.make ~name:("sn-slp-d3/" ^ largest.Registry.name)
      (Staged.stage (fun () -> ignore (Pipeline.run ~setting lfunc)))
  in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 1.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun _ ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some (e :: _) ->
          pr "  %s (%d instrs), SN-SLP depth %d: %.0f us@." largest.Registry.name
            largest_instrs headline_depth (e /. 1e3)
      | _ -> ())
    results

(* --- Ablations ----------------------------------------------------------------
   Design-choice sweeps beyond the paper's figures (DESIGN.md §4):
   look-ahead depth, target width / addsub support, and the
   compile-time cost model. *)

let sn_speedup ?(config = Config.snslp) (wl : Workload.t) =
  (* Simulate on the same target the compiler was configured for. *)
  let target = config.Config.target in
  let cycles setting =
    let func = compile setting wl.Workload.func in
    (Workload.measure ~target wl func).Snslp_simperf.Simperf.cycles
  in
  cycles None /. cycles (Some config)

let ablation_lookahead () =
  pr "%s" (Table.section "Ablation: look-ahead depth (SN-SLP speedup over O3)");
  let depths = [ 0; 1; 2; 3 ] in
  let rows =
    List.map
      (fun (k : Registry.t) ->
        let wl = Workload.prepare k in
        k.Registry.name
        :: List.map
             (fun d ->
               Printf.sprintf "%.3f"
                 (sn_speedup ~config:{ Config.snslp with Config.lookahead_depth = d } wl))
             depths)
      Registry.all
  in
  emit ~name:"ablation-lookahead"
    ~headers:("kernel" :: List.map (Printf.sprintf "depth %d") depths)
    rows;
  pr "  depth 0 keeps only shallow operand matching; the paper's LSLP-style@.";
  pr "  look-ahead (depth >= 1) is what lets build_group pick the right leaves.@."

let ablation_target () =
  pr "%s" (Table.section "Ablation: target machine (SN-SLP speedup over O3)");
  let targets = [ Target.sse; Target.avx2; Target.sse_no_addsub ] in
  let rows =
    List.map
      (fun (k : Registry.t) ->
        let wl = Workload.prepare k in
        k.Registry.name
        :: List.map
             (fun t ->
               Printf.sprintf "%.3f"
                 (sn_speedup ~config:{ Config.snslp with Config.target = t } wl))
             targets)
      Registry.all
  in
  emit ~name:"ablation-target"
    ~headers:("kernel" :: List.map (fun (t : Target.t) -> t.Target.name) targets)
    rows;
  pr "  the 2-lane kernels fall back to width 2 on AVX2 (narrower-width retry);@.";
  pr "  sphinx_gau_f32 uses 4 lanes; removing addsub penalises alternating nodes.@."

let ablation_model () =
  pr "%s" (Table.section "Ablation: compile-time cost model (decision per kernel)");
  let rows =
    List.map
      (fun (k : Registry.t) ->
        let cell model mode =
          let config = { (Config.with_mode mode Config.default) with Config.model = model } in
          let func = Snslp_frontend.Frontend.compile_one k.Registry.source in
          match (Pipeline.run ~setting:(Some config) func).Pipeline.vect_report with
          | Some rep ->
              let v = rep.Vectorize.stats.Stats.graphs_vectorized in
              if v > 0 then "vec" else "-"
          | None -> "?"
        in
        [
          k.Registry.name;
          cell Model.paper Config.Lslp;
          cell Model.x86 Config.Lslp;
          cell Model.paper Config.Snslp;
          cell Model.x86 Config.Snslp;
        ])
      Registry.all
  in
  emit ~name:"ablation-model"
    ~headers:[ "kernel"; "LSLP/paper"; "LSLP/x86"; "SN/paper"; "SN/x86" ]
    rows;
  pr "  the x86 model prices gathers/extracts more realistically and rejects the@.";
  pr "  hmmer_path tree LSLP mispredicts with the didactic model; sphinx_dist's@.";
  pr "  arithmetic savings still mask its gather cost — cost models are estimates,@.";
  pr "  which is the paper's point about LSLP occasionally losing to -O3.@."

(* --- Driver ------------------------------------------------------------------ *)

let experiments =
  [
    ("table1", table1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("ablation-lookahead", ablation_lookahead);
    ("ablation-target", ablation_target);
    ("ablation-model", ablation_model);
    ("compile-time", compile_time);
    ("packing", packing);
    ("loops", loops);
    ("targets", targets);
    ("parallel", parallel);
    ("fuzz", fuzz);
    ("lint", lint);
    ("interp", interp);
    ("service", service);
    ("smoke", smoke);
    ("bechamel", bechamel);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args =
    match args with
    | "--csv" :: dir :: rest ->
        csv_dir := Some dir;
        rest
    | _ -> args
  in
  let selected =
    match args with
    | [] -> experiments
    | names ->
        List.map
          (fun n ->
            match List.assoc_opt n experiments with
            | Some e -> (n, e)
            | None ->
                Format.eprintf "unknown experiment %s; available: %s@." n
                  (String.concat ", " (List.map fst experiments));
                exit 2)
          names
  in
  List.iter (fun (_, e) -> e ()) selected;
  Format.printf "@."
