(* The parallel driver's contract: output is bit-identical to the
   sequential path for every [jobs] value.

   Three layers of evidence:
   - pool unit tests (order preservation, stealing under uneven work,
     exception propagation, inline fallback after shutdown);
   - end-to-end determinism: every registry kernel under every
     vectorizer mode compiles to the same printed IR and the same
     merged counters at jobs=1 and jobs=4;
   - qcheck properties for [Stats.add]: any grouping of the adds
     gives the same sums, [Stats.create ()] adds nothing and the added
     record is left alone, which together make the driver's
     index-ordered sum schedule-independent; and an accumulator that
     stays one size however many records it takes. *)

open Snslp_ir
open Snslp_vectorizer
module Pool = Snslp_parallel.Pool
module Driver = Snslp_driver.Driver

let to_alcotest = QCheck_alcotest.to_alcotest

(* --- Pool unit tests ---------------------------------------------------- *)

let pool_map_order () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let input = Array.init 100 Fun.id in
      (* chunk:1 maximises scheduling freedom — every item may land on
         a different worker, in any order. *)
      let out = Pool.map ~chunk:1 pool (fun x -> x * x) input in
      Alcotest.(check (array int)) "squares in input order"
        (Array.map (fun x -> x * x) input)
        out)

let pool_uneven_work () =
  Pool.with_pool ~jobs:4 (fun pool ->
      (* Heavily skewed work sizes: the worker that draws item 0 is
         busy for a long time, so the others must steal the tail. *)
      let spin n =
        let acc = ref 0 in
        for i = 1 to n do
          acc := (!acc + i) mod 1_000_003
        done;
        !acc
      in
      let input = Array.init 64 (fun i -> if i = 0 then 2_000_000 else 1_000) in
      let out = Pool.map ~chunk:1 pool spin input in
      Alcotest.(check (array int)) "uneven work still lands in order"
        (Array.map spin input) out)

exception Boom of int

let pool_exception_propagates () =
  Pool.with_pool ~jobs:2 (fun pool ->
      (match Pool.map ~chunk:1 pool (fun x -> if x = 7 then raise (Boom x) else x) (Array.init 16 Fun.id) with
      | _ -> Alcotest.fail "expected the worker's exception in the submitter"
      | exception Boom 7 -> ());
      (* The pool must survive a failed map. *)
      let out = Pool.map pool (fun x -> x + 1) [| 1; 2; 3 |] in
      Alcotest.(check (array int)) "pool usable after a failure" [| 2; 3; 4 |] out)

let pool_shutdown_inline () =
  let pool = Pool.create ~jobs:4 in
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  let out = Pool.map pool (fun x -> x * 2) [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "maps run inline after shutdown" [| 2; 4; 6 |] out

let pool_map_list_order () =
  Pool.with_pool ~jobs:3 (fun pool ->
      let out = Pool.map_list ~chunk:1 pool (fun x -> x - 1) [ 10; 20; 30; 40 ] in
      Alcotest.(check (list int)) "map_list preserves order" [ 9; 19; 29; 39 ] out)

(* --- Cross-jobs determinism on the registry ----------------------------- *)

let compile_kernel (k : Snslp_kernels.Registry.t) =
  Snslp_frontend.Frontend.compile k.Snslp_kernels.Registry.source

let fingerprint results =
  let ir =
    String.concat "\n"
      (List.map (fun (r : Snslp_passes.Pipeline.result) -> Printer.func_to_string r.Snslp_passes.Pipeline.func) results)
  in
  (ir, Driver.merged_stats results)

let check_kernel_mode (k : Snslp_kernels.Registry.t) (mode : Config.mode) () =
  let funcs = compile_kernel k in
  let setting = Some (Config.with_mode mode Config.default) in
  let ir1, st1 = fingerprint (Driver.run_all ~jobs:1 ~setting funcs) in
  let ir4, st4 = fingerprint (Driver.run_all ~jobs:4 ~setting funcs) in
  Alcotest.(check string) "printed IR identical at jobs=1 and jobs=4" ir1 ir4;
  Alcotest.(check bool) "merged counters identical at jobs=1 and jobs=4" true
    (Stats.equal_counters st1 st4)

let determinism_tests =
  List.concat_map
    (fun (k : Snslp_kernels.Registry.t) ->
      List.map
        (fun mode ->
          Alcotest.test_case
            (Printf.sprintf "%s/%s jobs=1 == jobs=4" k.Snslp_kernels.Registry.name
               (Config.mode_to_string mode))
            `Slow
            (check_kernel_mode k mode))
        [ Config.Vanilla; Config.Lslp; Config.Snslp ])
    Snslp_kernels.Registry.all

(* A whole-registry batch in one run_all call: the work list is larger
   than any per-kernel call, so chunked distribution and stealing are
   actually exercised. *)
let batch_determinism () =
  let funcs = List.concat_map compile_kernel Snslp_kernels.Registry.all in
  let setting = Some Config.snslp in
  let base = fingerprint (Driver.run_all ~setting funcs) in
  List.iter
    (fun jobs ->
      let ir, st = fingerprint (Driver.run_all ~jobs ~setting funcs) in
      Alcotest.(check string)
        (Printf.sprintf "batch IR identical at jobs=%d" jobs)
        (fst base) ir;
      Alcotest.(check bool)
        (Printf.sprintf "batch counters identical at jobs=%d" jobs)
        true
        (Stats.equal_counters (snd base) st))
    [ 2; 4; 8 ]

(* --- Adaptive fan-out --------------------------------------------------- *)

(* [effective_jobs] is a pure clamp: requested, cores, items, and the
   amortisation bound 1 + cost/min_cost_per_domain, floored at 1. *)
let ej = Pool.effective_jobs

let big = 100 * Pool.min_cost_per_domain

let adaptive_clamps () =
  Alcotest.(check int) "requested caps the result" 2
    (ej ~cores:16 ~requested:2 ~items:100 ~total_cost:big ());
  Alcotest.(check int) "a 1-core host runs inline" 1
    (ej ~cores:1 ~requested:8 ~items:100 ~total_cost:big ());
  Alcotest.(check int) "a single item runs inline" 1
    (ej ~cores:16 ~requested:8 ~items:1 ~total_cost:big ());
  Alcotest.(check int) "items cap the fan-out" 3
    (ej ~cores:16 ~requested:8 ~items:3 ~total_cost:big ());
  Alcotest.(check int) "tiny work runs inline" 1
    (ej ~cores:16 ~requested:8 ~items:100 ~total_cost:0 ());
  Alcotest.(check int) "cost bound adds one domain per cost unit" 3
    (ej ~cores:16 ~requested:8 ~items:100
       ~total_cost:(2 * Pool.min_cost_per_domain)
       ());
  Alcotest.(check int) "never below 1" 1
    (ej ~cores:16 ~requested:0 ~items:0 ~total_cost:0 ())

let adaptive_driver_jobs () =
  let func =
    Snslp_frontend.Frontend.compile_one
      "kernel f(long A[], long B[], long i) { A[i] = B[i]; }"
  in
  Alcotest.(check int) "one tiny function runs inline" 1
    (Driver.adaptive_jobs ~requested:8 [ func ]);
  Alcotest.(check int) "never exceeds the requested jobs" 1
    (Driver.adaptive_jobs ~requested:1 (List.init 16 (fun _ -> func)))

let adaptive_output_identity () =
  let funcs = List.concat_map compile_kernel Snslp_kernels.Registry.all in
  let setting = Some Config.snslp in
  let exact = fingerprint (Driver.run_all ~setting funcs) in
  let adaptive =
    fingerprint
      (Driver.run_all ~jobs:(Driver.adaptive_jobs ~requested:8 funcs) ~setting funcs)
  in
  Alcotest.(check string) "adaptive fan-out changes nothing but wall-clock"
    (fst exact) (fst adaptive);
  Alcotest.(check bool) "merged counters identical" true
    (Stats.equal_counters (snd exact) (snd adaptive))

(* --- Stats.add properties ------------------------------------------------ *)

(* Phase times are generated as small multiples of 0.25: dyadic
   rationals add exactly in binary floating point, so sums of phases
   compare with (=), not approximately.  A record is generated as
   plain data and built by [stats_of_spec], so a test can rebuild the
   original to compare against. *)
let gen_spec =
  let open QCheck.Gen in
  let dyadic = map (fun n -> float_of_int n *. 0.25) (int_bound 16) in
  let phase_names = [ "slp"; "massage"; "codegen"; "deps" ] in
  let phases = list_size (int_bound 4) (pair (oneofl phase_names) dyadic) in
  let counter = int_bound 50 in
  let counters = tup5 counter counter counter counter counter in
  quad counters counters (list_size (int_bound 5) (int_range 2 6)) phases

let stats_of_spec ((a, b, c, d, e), (f, g, h, i, j), sizes, phases) =
  let s = Stats.create () in
  s.Stats.graphs_built <- a;
  s.Stats.graphs_vectorized <- b;
  s.Stats.nodes_formed <- c;
  s.Stats.gathers <- d;
  s.Stats.vector_instrs_emitted <- e;
  s.Stats.scalars_erased <- f;
  s.Stats.lookahead_hits <- g;
  s.Stats.reach_hits <- h;
  s.Stats.pack_expansions <- i;
  s.Stats.loops_found <- j;
  List.iter (fun size -> Stats.record_supernode s ~size) sizes;
  List.iter (fun (name, t) -> Stats.add_phase s name t) phases;
  s

let stats_equal a b =
  Stats.equal_counters a b && Stats.phases_sorted a = Stats.phases_sorted b

(* Records added one by one into a fresh accumulator. *)
let sum records =
  let acc = Stats.create () in
  List.iter (Stats.add ~into:acc) records;
  acc

(* [xs] cut into consecutive groups of the given sizes (each >= 1); the
   last group takes what is left. *)
let rec regroup cuts xs =
  match (cuts, xs) with
  | _, [] -> []
  | [], _ -> [ xs ]
  | n :: cuts, _ ->
      List.filteri (fun k _ -> k < n) xs :: regroup cuts (List.filteri (fun k _ -> k >= n) xs)

let add_any_grouping =
  QCheck.Test.make ~count:200 ~name:"Stats.add sums are independent of grouping"
    (QCheck.make
       QCheck.Gen.(
         pair (list_size (int_bound 6) (map stats_of_spec gen_spec))
           (list_size (int_bound 4) (int_range 1 3))))
    (fun (records, cuts) ->
      stats_equal (sum records) (sum (List.map sum (regroup cuts records))))

let add_identity =
  QCheck.Test.make ~count:200 ~name:"Stats.add of a fresh record changes nothing"
    (QCheck.make gen_spec)
    (fun spec ->
      let s = stats_of_spec spec in
      Stats.add ~into:s (Stats.create ());
      stats_equal s (stats_of_spec spec) && stats_equal (sum [ s ]) s)

let add_leaves_source =
  QCheck.Test.make ~count:200 ~name:"Stats.add leaves the added record alone"
    (QCheck.make (QCheck.Gen.pair gen_spec gen_spec))
    (fun (spec, into_spec) ->
      let s = stats_of_spec spec in
      Stats.add ~into:(stats_of_spec into_spec) s;
      stats_equal s (stats_of_spec spec))

(* A long-lived accumulator (the compile service keeps one for its
   lifetime) must not grow with the records added into it. *)
let add_fixed_size () =
  let one_node () =
    let s = Stats.create () in
    s.Stats.nodes_formed <- 1;
    Stats.record_supernode s ~size:2;
    Stats.add_phase s "graph" 1e-6;
    s
  in
  let acc = Stats.create () in
  Stats.add ~into:acc (one_node ());
  let words = Obj.reachable_words (Obj.repr acc) in
  for _ = 2 to 10_000 do
    Stats.add ~into:acc (one_node ())
  done;
  Alcotest.(check int) "10,000 records summed" 10_000 (Stats.num_supernodes acc);
  Alcotest.(check int) "reachable words after the last add" words
    (Obj.reachable_words (Obj.repr acc))

let suite =
  [
    ( "parallel-pool",
      [
        Alcotest.test_case "map preserves order" `Quick pool_map_order;
        Alcotest.test_case "uneven work is stolen" `Quick pool_uneven_work;
        Alcotest.test_case "exception propagates" `Quick pool_exception_propagates;
        Alcotest.test_case "shutdown falls back inline" `Quick pool_shutdown_inline;
        Alcotest.test_case "map_list order" `Quick pool_map_list_order;
      ] );
    ( "parallel-determinism",
      determinism_tests
      @ [ Alcotest.test_case "whole-registry batch, jobs in {2,4,8}" `Slow batch_determinism ]
    );
    ( "parallel-adaptive",
      [
        Alcotest.test_case "effective_jobs clamps" `Quick adaptive_clamps;
        Alcotest.test_case "adaptive_jobs on real functions" `Quick adaptive_driver_jobs;
        Alcotest.test_case "adaptive_jobs output identity" `Slow adaptive_output_identity;
      ] );
    ( "parallel-stats",
      [
        to_alcotest add_any_grouping;
        to_alcotest add_identity;
        to_alcotest add_leaves_source;
        Alcotest.test_case "Stats.add keeps the accumulator one size" `Quick add_fixed_size;
      ] );
  ]
