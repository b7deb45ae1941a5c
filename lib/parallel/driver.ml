(* Parallel vectorization driver.

   The unit of distribution is a whole function through the pass
   pipeline — the same granularity goSLP uses for whole-program SLP
   throughput.  Determinism does not depend on the schedule: results
   land in input order, each item's compilation touches only its own
   clone, and no state crosses items ([Vectorize.run] owns its
   look-ahead memo). *)

open Snslp_ir
open Snslp_vectorizer
open Snslp_passes
module Pool = Snslp_parallel.Pool

(* A one-worker pool spawns no domain and maps inline. *)
let run_all ?(jobs = 1) ?verify_each ?validate ~(setting : Pipeline.setting)
    (funcs : Defs.func list) : Pipeline.result list =
  Pool.with_pool ~jobs (fun p ->
      Pool.map_list p (fun func -> Pipeline.run ~setting ?verify_each ?validate func) funcs)

(* Adaptive fan-out: size the pool from what the machine can run and
   what the work can amortise, instead of trusting the requested
   count verbatim.  The per-request cost estimate is the instruction
   count — compile time is near-linear in it across the registry
   (BENCH_compile_time.json) — and the clamp is {!Pool.effective_jobs},
   so a single request, a 1-core container, or a batch of tiny kernels
   all run inline with zero pool machinery. *)
let adaptive_jobs ~requested (funcs : Defs.func list) =
  let total_cost = List.fold_left (fun acc f -> acc + Func.num_instrs f) 0 funcs in
  Pool.effective_jobs ~requested ~items:(List.length funcs) ~total_cost ()

let merged_stats (results : Pipeline.result list) : Stats.t =
  let acc = Stats.create () in
  List.iter
    (fun (r : Pipeline.result) ->
      Option.iter (fun rep -> Stats.add ~into:acc rep.Vectorize.stats) r.Pipeline.vect_report)
    results;
  acc
