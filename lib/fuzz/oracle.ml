(* The differential oracle.

   Ground truth is the interpreter running the *unoptimized* function;
   every pipeline configuration (O3 baseline, the three SLP modes,
   each with memoization on and off) must reproduce the same final
   memory.  Four ways to lose:

   - [Crash]: the pipeline or the interpreter raised;
   - [Invalid]: the optimized function fails the IR verifier;
   - [Mismatch]: the final memories diverge beyond the tolerance
     (NaN-safe: matching NaNs agree, equal infinities agree);
   - [Static_mismatch]: the translation validator proves the optimized
     function stores a different value than the original — a static
     side-channel that needs no execution, so it can flag divergence
     the single concrete input happens to mask.

   The oracle is deliberately pure observation — it never mutates the
   input function — so a finding can be replayed by re-running the
   same function through the same configuration. *)

open Snslp_ir
open Snslp_interp
open Snslp_vectorizer
open Snslp_costmodel
module Pipeline = Snslp_passes.Pipeline
module Driver = Snslp_driver.Driver
module Workload = Snslp_kernels.Workload

type kind =
  | Crash of string (* the pipeline or the interpreter raised *)
  | Invalid of string (* the optimized function fails the verifier *)
  | Mismatch of string (* final memories diverge beyond tolerance *)
  | Static_mismatch of string (* the translation validator disproved the run *)

type finding = { config : string; kind : kind }

let kind_to_string = function
  | Crash d -> "crash: " ^ d
  | Invalid d -> "invalid IR: " ^ d
  | Mismatch d -> "mismatch: " ^ d
  | Static_mismatch d -> "static mismatch: " ^ d

let finding_to_string f = Printf.sprintf "[%s] %s" f.config (kind_to_string f.kind)

(* --- Engine selection ------------------------------------------------------ *)

(* Which interpreter engine backs the oracle.  [Cross] runs the
   reference on the tree-walker and every optimized function on the
   compiled engine, so the two engines differentially check *each
   other* on top of checking the pipeline. *)
type engine = Tree | Compiled | Cross

let engine_name = function Tree -> "tree" | Compiled -> "compiled" | Cross -> "cross"

(* (reference engine, optimized-run engine) *)
let interp_engines = function
  | Tree -> (Interp.Tree, Interp.Tree)
  | Compiled -> (Interp.Compiled, Interp.Compiled)
  | Cross -> (Interp.Tree, Interp.Compiled)

(* Interpreter-side throughput, accumulated across every oracle
   execution when the caller passes an accumulator: executed
   instructions and wall seconds spent inside the engines (compile
   staging included for the compiled engine — that is the price a
   single-shot oracle run actually pays). *)
type exec_stats = {
  mutable exec_runs : int;
  mutable exec_instrs : int;
  mutable exec_seconds : float;
}

let create_exec_stats () = { exec_runs = 0; exec_instrs = 0; exec_seconds = 0.0 }

(* The evaluated configurations: the paper's three modes plus the
   no-vectorizer baseline (which exercises the scalar passes alone). *)
let default_configs : (string * Pipeline.setting) list =
  (* The packing axis rides on sn-slp (the mode with the largest
     candidate space): global pack selection at the default beam and
     at beam 2 with a tight node budget — the budget-exhaustion path
     is a correctness path too. *)
  let global name beam node_budget =
    (name, Some { Config.snslp with Config.packing = Config.Global { beam; node_budget } })
  in
  (* The target axis rides on sn-slp too: one config per backend
     flavour (its own register width, addsub availability and machine
     model), the widest one also with the revec re-widening pass so
     the wide-target legality and profitability paths stay under
     differential test. *)
  let on_target name (tgt : Target.t) revec =
    ( name,
      Some
        { Config.snslp with Config.target = tgt; model = Model.for_target tgt; revec } )
  in
  [
    ("o3", None);
    ("slp", Some Config.vanilla);
    ("lslp", Some Config.lslp);
    ("snslp", Some Config.snslp);
    global "snslp-global" Config.default_beam Config.default_node_budget;
    global "snslp-global-b2" 2 64;
    on_target "snslp-avx2" Target.avx2 false;
    on_target "snslp-avx512" Target.avx512 false;
    on_target "snslp-avx512-revec" Target.avx512 true;
    on_target "snslp-neon" Target.neon false;
  ]

(* --- Execution harness ---------------------------------------------------- *)

(* Generated functions address at most a few tens of elements past the
   index argument; 512 leaves plenty of slack while keeping the
   memory diff cheap. *)
let buffer_size = 512

(* The index argument's runtime value.  Any value works (correctness
   must not depend on it); a small non-zero one keeps symbolic and
   constant addressing distinct. *)
let index_value = 8L

let fresh_memory (func : Defs.func) : Memory.t =
  let memory = Memory.create () in
  Array.iter
    (fun (a : Defs.arg) ->
      match a.Defs.arg_ty with
      | Ty.Ptr s when Ty.scalar_is_float s ->
          Memory.set_float_buffer memory ~arg_pos:a.Defs.arg_pos
            (Array.init buffer_size (Workload.float_value ~seed:(a.Defs.arg_pos + 1)))
      | Ty.Ptr _ ->
          Memory.set_int_buffer memory ~arg_pos:a.Defs.arg_pos
            (Array.init buffer_size (Workload.int_value ~seed:(a.Defs.arg_pos + 1)))
      | Ty.Scalar _ | Ty.Vector _ -> ())
    (Func.args func);
  memory

let make_args (func : Defs.func) : Rvalue.t array =
  Array.map
    (fun (a : Defs.arg) ->
      match a.Defs.arg_ty with
      | Ty.Ptr _ -> Rvalue.R_ptr { base = a.Defs.arg_pos; offset = 0 }
      | Ty.Scalar s when Ty.scalar_is_int s -> Rvalue.R_int index_value
      | Ty.Scalar _ -> Rvalue.R_float 1.5
      | Ty.Vector _ -> Rvalue.R_undef)
    (Func.args func)

(* One timed oracle execution on the chosen engine, accumulating into
   [stats] when given. *)
let timed_exec ?stats ~(engine : Interp.engine) (func : Defs.func)
    ~(memory : Memory.t) : unit =
  let args = make_args func in
  match stats with
  | None -> ignore (Interp.exec ~engine func ~args ~memory)
  | Some s ->
      let t0 = Stats.now_s () in
      let n = Interp.exec ~engine func ~args ~memory in
      s.exec_seconds <- s.exec_seconds +. (Stats.now_s () -. t0);
      s.exec_runs <- s.exec_runs + 1;
      s.exec_instrs <- s.exec_instrs + n

(* [run_memory func] interprets one call of [func] on fresh memory. *)
let run_memory ?(engine = Interp.Compiled) (func : Defs.func) : Memory.t =
  let memory = fresh_memory func in
  ignore (Interp.exec ~engine func ~args:(make_args func) ~memory);
  memory

(* Test-only hook: applied to each optimized function before it is
   compared, so the reducer's end-to-end path (a real finding flowing
   into minimization) can be exercised without shipping a bug. *)
let inject_bug : (Defs.func -> unit) option ref = ref None

(* --- The oracle ----------------------------------------------------------- *)

(* [run_case func] pushes [func] through every configuration and
   returns all findings (empty list = clean).  Every configuration,
   o3 included, runs with [verify_each], so a pass that breaks the IR
   is named in the finding rather than discovered at the end of the
   pipeline.

   The deterministic input memory is built once per case and every run
   works on a snapshot of that template: the reference keeps its copy
   for diffing, and one scratch memory is blit-restored before each
   configuration instead of re-running [Array.init] +
   [Workload.*_value] per pointer argument eight times. *)
let run_case ?(engine = Compiled) ?stats ?(configs = default_configs) ?tolerance
    ?(validate = true) (func : Defs.func) : finding list =
  let tolerance = match tolerance with Some t -> t | None -> Gen.tolerance_for func in
  let ref_engine, opt_engine = interp_engines engine in
  let template = fresh_memory func in
  let reference =
    let memory = Memory.snapshot template in
    try
      timed_exec ?stats ~engine:ref_engine func ~memory;
      Ok memory
    with e -> Error (Printexc.to_string e)
  in
  match reference with
  | Error detail ->
      (* The unoptimized function itself failed to execute: a
         generator bug, reported against a pseudo-config. *)
      [ { config = "reference"; kind = Crash detail } ]
  | Ok ref_memory ->
      let scratch = Memory.snapshot template in
      List.concat_map
        (fun (name, setting) ->
          let kinds =
            match Pipeline.run ~setting ~verify_each:true func with
            | exception e -> [ Crash (Printexc.to_string e) ]
            | result -> (
                let optimized = result.Pipeline.func in
                (match !inject_bug with Some f -> f optimized | None -> ());
                match Verifier.check optimized with
                | Error detail -> [ Invalid detail ]
                | Ok () ->
                    (* The static side-channel runs on exactly the
                       function the interpreter is about to execute
                       (inject_bug applied), so an injected
                       miscompilation must trip it too.  [Unknown] is
                       not a finding: the validator punts on fragments
                       outside its normal form. *)
                    let static =
                      if not validate then []
                      else
                        match
                          Snslp_lint.Validate.compare_funcs ~tolerance func optimized
                        with
                        | exception e ->
                            [ Crash ("validator: " ^ Printexc.to_string e) ]
                        | Snslp_lint.Validate.Mismatch { where; detail } ->
                            [ Static_mismatch (Printf.sprintf "@%s: %s" where detail) ]
                        | Snslp_lint.Validate.Valid | Snslp_lint.Validate.Unknown _ -> []
                    in
                    let dynamic =
                      Memory.restore ~template scratch;
                      match timed_exec ?stats ~engine:opt_engine optimized ~memory:scratch with
                      | exception e -> [ Crash (Printexc.to_string e) ]
                      | () -> (
                          match Memory.diff_nan_safe ~tolerance ref_memory scratch with
                          | Some detail -> [ Mismatch detail ]
                          | None -> [])
                    in
                    static @ dynamic)
          in
          List.map (fun kind -> { config = name; kind }) kinds)
        configs

(* [check_jobs_determinism ~jobs funcs] runs the parallel driver over
   a batch sequentially and with [jobs] workers and demands printed-IR
   identity per function — the driver's bit-identical-output
   contract. *)
let check_jobs_determinism ?(setting = Some Config.snslp) ~jobs
    (funcs : Defs.func list) : finding list =
  let texts results =
    List.map (fun (r : Pipeline.result) -> Printer.func_to_string r.Pipeline.func) results
  in
  match
    ( texts (Driver.run_all ~jobs:1 ~setting funcs),
      texts (Driver.run_all ~jobs ~setting funcs) )
  with
  | exception e ->
      [ { config = Printf.sprintf "jobs%d" jobs; kind = Crash (Printexc.to_string e) } ]
  | seq, par ->
      List.concat
        (List.map2
           (fun (f : Defs.func) (a, b) ->
             if String.equal a b then []
             else
               [
                 {
                   config = Printf.sprintf "jobs%d" jobs;
                   kind =
                     Mismatch
                       (Printf.sprintf "@%s: parallel output differs from sequential"
                          f.Defs.fname);
                 };
               ])
           funcs (List.combine seq par))
