(* Campaign orchestration: generate N cases, run each through the
   differential oracle, optionally minimize every failing case, and
   tally throughput for the bench harness.

   Determinism: case k of a campaign seeded with S uses generation
   seed S * 1_000_003 + k, so any failing case can be regenerated in
   isolation from the campaign seed and its index (both are part of
   the report). *)

open Snslp_ir
module Pipeline = Snslp_passes.Pipeline

(* One failing case: the generation seed regenerates it, [findings]
   says which configurations lost and how, [reduced] is the minimized
   reproducer when reduction was requested. *)
type case_report = {
  case_seed : int;
  findings : Oracle.finding list; (* non-empty *)
  reduced : Defs.func option;
}

type result = {
  cases : int;
  total_instrs : int; (* across all generated functions *)
  elapsed_seconds : float;
  reports : case_report list; (* empty = clean campaign *)
  engine : string; (* Oracle.engine_name of the engine that ran *)
  exec_runs : int; (* interpreter invocations across all cases *)
  exec_instrs : int; (* instructions the engines executed *)
  exec_seconds : float; (* wall seconds inside the engines *)
}

let case_seed ~seed k = (seed * 1_000_003) + k

(* Minimize a failing case under "the same configurations still
   lose".  Ordinary findings replay through the oracle; parallel
   determinism findings replay through the driver comparison. *)
let reduce_case ~engine ~configs ~jobs (func : Defs.func)
    (findings : Oracle.finding list) : Defs.func =
  let names = List.map (fun (f : Oracle.finding) -> f.Oracle.config) findings in
  let failed_configs =
    List.filter (fun (name, _) -> List.mem name names) configs
  in
  let fails g =
    (failed_configs <> [] && Oracle.run_case ~engine ~configs:failed_configs g <> [])
    || (jobs > 1
       && List.exists (fun n -> n = Printf.sprintf "jobs%d" jobs) names
       && Oracle.check_jobs_determinism ~jobs [ g ] <> [])
    || (failed_configs = [] && Oracle.run_case ~engine ~configs g <> [])
  in
  if fails func then Reduce.run ~fails func else func

(* [run ~seed ~cases ()] executes one campaign.  [jobs] > 1 adds the
   parallel-driver determinism check over batches of generated
   functions; [reduce] minimizes every failing case; [on_progress]
   fires after each case with (cases done, failing cases so far). *)
let run ?profile ?(engine = Oracle.Compiled) ?(configs = Oracle.default_configs)
    ?(jobs = 1) ?(batch = 32) ?(reduce = true)
    ?(on_progress = fun ~done_:_ ~failing:_ -> ()) ~seed ~cases () : result =
  let t0 = Snslp_vectorizer.Stats.now_s () in
  let stats = Oracle.create_exec_stats () in
  let total_instrs = ref 0 in
  let reports = ref [] in
  let pending_batch = ref [] in
  let flush_batch () =
    if jobs > 1 && !pending_batch <> [] then begin
      let funcs = List.rev !pending_batch in
      pending_batch := [];
      match Oracle.check_jobs_determinism ~jobs funcs with
      | [] -> ()
      | findings ->
          (* The finding text names the exact function; -1 marks a
             batch-level (not per-case) report. *)
          reports := { case_seed = -1; findings; reduced = None } :: !reports
    end
  in
  for k = 0 to cases - 1 do
    let cseed = case_seed ~seed k in
    let func = Gen.generate ?profile ~seed:cseed () in
    total_instrs := !total_instrs + Func.num_instrs func;
    (match Oracle.run_case ~engine ~stats ~configs func with
    | [] -> ()
    | findings ->
        let reduced =
          if reduce then Some (reduce_case ~engine ~configs ~jobs func findings)
          else None
        in
        reports := { case_seed = cseed; findings; reduced } :: !reports);
    if jobs > 1 then begin
      pending_batch := func :: !pending_batch;
      if List.length !pending_batch >= batch then flush_batch ()
    end;
    on_progress ~done_:(k + 1) ~failing:(List.length !reports)
  done;
  flush_batch ();
  {
    cases;
    total_instrs = !total_instrs;
    elapsed_seconds = Snslp_vectorizer.Stats.now_s () -. t0;
    reports = List.rev !reports;
    engine = Oracle.engine_name engine;
    exec_runs = stats.Oracle.exec_runs;
    exec_instrs = stats.Oracle.exec_instrs;
    exec_seconds = stats.Oracle.exec_seconds;
  }

let clean (r : result) = r.reports = []
