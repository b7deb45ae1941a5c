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

(* Every domain, the caller included, claims the next index from one
   counter until the items run out or one has failed.  Indices are
   claimed in increasing order and a claimed item always runs, so when
   item [k] fails every item below [k] has run: the lowest failure
   recorded is the one [List.map] raises.  Each slot is written by the
   one domain that claimed it and read after [Domain.join]. *)
let map ~jobs f items =
  let items = Array.of_list items in
  let n = Array.length items in
  let results = Array.make n None in
  let next = Atomic.make 0 and failed = Atomic.make false in
  let rec work () =
    if not (Atomic.get failed) then begin
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <-
          Some
            (match f items.(i) with
            | y -> Ok y
            | exception e ->
                Atomic.set failed true;
                Error e);
        work ()
      end
    end
  in
  let helpers = List.init (max 0 (min jobs n - 1)) (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join helpers;
  Array.iter (function Some (Error e) -> raise e | _ -> ()) results;
  Array.to_list (Array.map (function Some (Ok y) -> y | _ -> assert false) results)

(* At one job no domain is spawned and the items compile inline. *)
let run_all ?(jobs = 1) ?verify_each ?validate ~(setting : Pipeline.setting)
    (funcs : Defs.func list) : Pipeline.result list =
  map ~jobs (fun func -> Pipeline.run ~setting ?verify_each ?validate func) funcs

(* Minimum estimated work (abstract cost units; the driver charges one
   unit per IR instruction) that must be on the table before each
   additional worker domain pays for itself.  Calibrated against
   BENCH_compile_time.json: SN-SLP compiles at roughly 2.5–7 us per
   instruction, while spawning and joining a domain costs on the order
   of 100 us — so a domain needs a few thousand instructions of work
   to amortise.  BENCH_parallel.json showed the blind fan-out losing
   2–4x on a 1-core container; this bound plus the core clamp is the
   fix. *)
let min_cost_per_domain = 2048

(* [effective_jobs ~requested ~items ~total_cost] — how many domains a
   fan-out of [items] work items with summed estimated cost
   [total_cost] should actually use: never more than requested, than
   the machine can run in parallel ([cores], default
   [Domain.recommended_domain_count ()]), than there are items, or
   than the work can amortise.  1 means fully inline (no domain is
   spawned).  Output never depends on the answer — only wall-clock
   does — so clamping is always safe. *)
let effective_jobs ?cores ~requested ~items ~total_cost () =
  let cores =
    match cores with Some c -> max 1 c | None -> Domain.recommended_domain_count ()
  in
  let by_cost = 1 + (max 0 total_cost / min_cost_per_domain) in
  max 1 (min (min requested cores) (min items by_cost))

(* Adaptive fan-out: size the fan-out from what the machine can run
   and what the work can amortise, instead of trusting the requested
   count verbatim.  The per-request cost estimate is the instruction
   count — compile time is near-linear in it across the registry
   (BENCH_compile_time.json) — and the clamp is {!effective_jobs}, so
   a single request, a 1-core container, or a batch of tiny kernels
   all run inline without spawning a domain. *)
let adaptive_jobs ~requested (funcs : Defs.func list) =
  let total_cost = List.fold_left (fun acc f -> acc + Func.num_instrs f) 0 funcs in
  effective_jobs ~requested ~items:(List.length funcs) ~total_cost ()

let merged_stats (results : Pipeline.result list) : Stats.t =
  let acc = Stats.create () in
  List.iter
    (fun (r : Pipeline.result) ->
      Option.iter (fun rep -> Stats.add ~into:acc rep.Vectorize.stats) r.Pipeline.vect_report)
    results;
  acc
