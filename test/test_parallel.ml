(* The parallel driver's contract: output is bit-identical to the
   sequential path for every [jobs] value.

   Three layers of evidence:
   - pool unit tests (order preservation, stealing under uneven work,
     exception propagation, inline fallback after shutdown);
   - end-to-end determinism: every registry kernel under every
     vectorizer mode compiles to the same printed IR and the same
     merged counters at jobs=1 and jobs=4;
   - qcheck properties for [Stats.merge]: associativity and the
     [Stats.create ()] identity, which together make the driver's
     index-ordered fold schedule-independent. *)

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

(* --- Stats.merge properties --------------------------------------------- *)

(* Phase times are generated as small multiples of 0.25: dyadic
   rationals add exactly in binary floating point, so associativity of
   the merged phase sums holds with (=), not approximately. *)
let gen_stats =
  let open QCheck.Gen in
  let dyadic = map (fun n -> float_of_int n *. 0.25) (int_bound 16) in
  let phase_names = [ "slp"; "massage"; "codegen"; "deps" ] in
  let phases = list_size (int_bound 4) (pair (oneofl phase_names) dyadic) in
  let counter = int_bound 50 in
  let sizes = list_size (int_bound 5) (int_range 2 6) in
  map2
    (fun (a, b, c, d, sizes) (e, f, g, h, ph) ->
      let s = Stats.create () in
      s.Stats.graphs_built <- a;
      s.Stats.graphs_vectorized <- b;
      s.Stats.nodes_formed <- c;
      s.Stats.gathers <- d;
      s.Stats.supernode_sizes <- sizes;
      s.Stats.vector_instrs_emitted <- e;
      s.Stats.scalars_erased <- f;
      s.Stats.lookahead_hits <- g;
      s.Stats.reach_hits <- h;
      List.iter (fun (name, t) -> Stats.add_phase s name t) ph;
      s)
    (tup5 counter counter counter counter sizes)
    (tup5 counter counter counter counter phases)

let stats_equal a b =
  Stats.equal_counters a b && Stats.phases_sorted a = Stats.phases_sorted b

let merge_associative =
  QCheck.Test.make ~count:200 ~name:"Stats.merge is associative"
    (QCheck.make (QCheck.Gen.triple gen_stats gen_stats gen_stats))
    (fun (a, b, c) ->
      stats_equal (Stats.merge (Stats.merge a b) c) (Stats.merge a (Stats.merge b c)))

let merge_identity =
  QCheck.Test.make ~count:200 ~name:"Stats.create is a merge identity"
    (QCheck.make gen_stats)
    (fun s ->
      stats_equal (Stats.merge (Stats.create ()) s) s
      && stats_equal (Stats.merge s (Stats.create ())) s)

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
      [ to_alcotest merge_associative; to_alcotest merge_identity ] );
  ]
