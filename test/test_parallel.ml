(* The parallel driver's contract: output is bit-identical to the
   sequential path for every [jobs] value.

   Three layers of evidence:
   - [Driver.map] unit tests on the domains one call spawns (order
     preservation for long and short lists and under uneven work, and
     the exception [List.map] would raise);
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
module Driver = Snslp_driver.Driver

let to_alcotest = QCheck_alcotest.to_alcotest

(* --- Driver.map unit tests ---------------------------------------------- *)

let map_order () =
  let input = List.init 100 Fun.id in
  Alcotest.(check (list int)) "squares in input order"
    (List.map (fun x -> x * x) input)
    (Driver.map ~jobs:4 (fun x -> x * x) input)

(* A list barely longer than the domain count: four items on three
   domains, so some domain claims two. *)
let map_list_order () =
  Alcotest.(check (list int)) "short list in input order" [ 9; 19; 29; 39 ]
    (Driver.map ~jobs:3 (fun x -> x - 1) [ 10; 20; 30; 40 ])

let spin n =
  let acc = ref 0 in
  for i = 1 to n do
    acc := (!acc + i) mod 1_000_003
  done;
  !acc

let map_uneven_work () =
  (* Heavily skewed work sizes: the domain that claims item 0 is busy
     for a long time, so the others claim the tail. *)
  let input = List.init 64 (fun i -> if i = 0 then 2_000_000 else 1_000) in
  Alcotest.(check (list int)) "uneven work still lands in order"
    (List.map spin input)
    (Driver.map ~jobs:4 spin input)

exception Boom of int

(* Item 0 fails only after a long spin, item 32 at once: the first
   failure in time is item 32's, but every index below 32 is claimed
   before it, so item 0 runs and its exception is the one to raise, as
   [List.map] raises it. *)
let map_lowest_failure () =
  let f i =
    if i = 0 then begin
      ignore (spin 2_000_000);
      raise (Boom 0)
    end
    else if i = 32 then raise (Boom 32)
    else i
  in
  let input = List.init 64 Fun.id in
  (match List.map f input with
  | _ -> Alcotest.fail "List.map should raise"
  | exception Boom k -> Alcotest.(check int) "List.map raises item 0's" 0 k);
  for _ = 1 to 20 do
    match Driver.map ~jobs:4 f input with
    | _ -> Alcotest.fail "expected an item's exception in the caller"
    | exception Boom k -> Alcotest.(check int) "lowest failed index raises" 0 k
  done

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
   than any per-kernel call, so the domains actually share the index
   counter. *)
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
let ej = Driver.effective_jobs

let big = 100 * Driver.min_cost_per_domain

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
       ~total_cost:(2 * Driver.min_cost_per_domain)
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
  let phase_names = [ Stats.Graph; Stats.Massage; Stats.Codegen; Stats.Deps ] in
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
  s.Stats.admit_work <- h;
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
    Stats.add_phase s Stats.Graph 1e-6;
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
        Alcotest.test_case "map preserves order" `Quick map_order;
        Alcotest.test_case "map_list order" `Quick map_list_order;
        Alcotest.test_case "uneven work lands in order" `Quick map_uneven_work;
        Alcotest.test_case "lowest failed index raises" `Quick map_lowest_failure;
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
