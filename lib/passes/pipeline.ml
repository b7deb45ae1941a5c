(* The pass pipeline: a miniature -O3.

   The scalar pre-passes canonicalise the frontend's output (fold
   literals, clean algebraic identities, unify repeated loads and
   geps), then the configured SLP variant runs, then DCE sweeps the
   scalar leftovers.  Each pass is timed; the totals back the paper's
   compilation-time experiment (Figure 11). *)

open Snslp_ir
open Snslp_vectorizer

type timing = { pass : string; seconds : float }

(* The translation-validation record of one pipeline run: one verdict
   per recorded rewriting pass (checking just that pass's step), the
   invariant violations of every SLP graph the vectorizer built, a
   whole-pipeline verdict, and the seconds the validator itself
   consumed (kept apart from pass timings so the overhead experiment
   can report validator cost against vectorize cost). *)
type validation = {
  pass_verdicts : (string * Snslp_lint.Validate.verdict) list;
  graph_findings : string list;
  end_verdict : Snslp_lint.Validate.verdict;
  validate_seconds : float;
}

type result = {
  func : Defs.func;
  vect_report : Vectorize.report option; (* None under -O3 (no vectorizer) *)
  timings : timing list;
  total_seconds : float;
  validation : validation option; (* Some iff [~validate:true] *)
}

(* Vectorizer setting: [None] models the paper's "O3" configuration
   (all vectorizers disabled); [Some config] runs the configured SLP
   variant. *)
type setting = Config.t option

let setting_name = function
  | None -> "o3"
  | Some c -> Config.mode_to_string c.Config.mode

(* Pass timings read the compile's one clock, {!Stats.now_s}: these
   seconds feed the compile-time experiments. *)
let timed name f =
  let t0 = Stats.now_s () in
  let r = f () in
  ({ pass = name; seconds = Stats.now_s () -. t0 }, r)

(* [run ?setting ?verify_each ?validate func] optimises a copy of
   [func] and returns it; the input function is not modified.
   [verify_each] (default false) re-verifies the IR after every
   recorded pass and raises {!Verifier.Invalid_ir} naming the pass
   that broke it.
   [validate] additionally runs the translation validator after every
   rewriting pass (comparing against the IR the pass received), checks
   the structural invariants of every SLP graph the vectorizer builds,
   and records a whole-pipeline verdict; [tolerance] is the relative
   float tolerance the validator accepts (reassociated float constant
   folding shifts rounding).  [on_graph] observes every SLP graph the
   vectorizer builds (see {!Vectorize.run}). *)
let run ?(setting : setting = Some Config.snslp) ?(verify_each = false)
    ?(validate = false) ?tolerance ?on_graph (func : Defs.func) : result =
  let f = Func.clone func in
  let timings = ref [] in
  let pass_verdicts = ref [] in
  let graph_findings = ref [] in
  let validate_seconds = ref 0. in
  (* Capture the symbolic memory each recorded pass starts from, so
     every verdict pinpoints a single pass.  The IR a pass produces is
     the IR the next pass receives, so one capture per pass suffices:
     the post-snapshot of pass [n] is the pre-snapshot of pass [n+1],
     and the first and last snapshots back the end-to-end verdict for
     free.  The final "verify" pass never rewrites, so it gets no
     verdict. *)
  let first_snap = ref None in
  let cache = Snslp_lint.Validate.cache () in
  let prev_snap =
    ref
      (if validate then begin
         let t0 = Stats.now_s () in
         let s = Snslp_lint.Validate.capture ~cache f in
         validate_seconds := !validate_seconds +. (Stats.now_s () -. t0);
         first_snap := Some s;
         Some s
       end
       else None)
  in
  (* [changed = false] asserts the pass reported zero rewrites;
     unchanged IR validates to [Valid] with no fresh capture. *)
  let validated ~changed name =
    match !prev_snap with
    | None -> ()
    | Some pre when name <> "verify" ->
        if changed then begin
          let t0 = Stats.now_s () in
          let cur = Snslp_lint.Validate.capture ~cache f in
          let v = Snslp_lint.Validate.compare_snapshots ?tolerance pre cur in
          validate_seconds := !validate_seconds +. (Stats.now_s () -. t0);
          pass_verdicts := (name, v) :: !pass_verdicts;
          prev_snap := Some cur
        end
        else pass_verdicts := (name, Snslp_lint.Validate.Valid) :: !pass_verdicts
    | Some _ -> ()
  in
  let record ?(changed = true) (t : timing) =
    timings := t :: !timings;
    (if verify_each then
       match Verifier.check f with
       | Ok () -> ()
       | Error report ->
           raise (Verifier.Invalid_ir (Printf.sprintf "after pass %s: %s" t.pass report)));
    validated ~changed t.pass
  in
  let on_graph =
    if validate then
      Some
        (fun g ->
          graph_findings := !graph_findings @ Invariants.check g;
          Option.iter (fun hook -> hook g) on_graph)
    else on_graph
  in
  let t0 = Stats.now_s () in
  let t, n = timed "fold" (fun () -> Fold.run f) in
  record ~changed:(n > 0) t;
  let t, n = timed "simplify" (fun () -> Simplify.run f) in
  record ~changed:(n > 0) t;
  let t, n = timed "cse" (fun () -> Cse.run f) in
  record ~changed:(n > 0) t;
  (* Loop passes: unroll counted loops, flatten any diamonds the
     copies contain (ifconv), then jam the resulting straight-line
     chains into single blocks so the iterations' stores sit side by
     side as SLP seed windows.  The unroll policy comes from the
     setting; -O3 keeps its loops (the differential oracle's scalar
     reference executes them as written). *)
  let unroll_report =
    match setting with
    | None | Some { Config.unroll = Config.No_unroll; _ } -> None
    | Some c ->
        let t, r = timed "unroll" (fun () -> Unroll.run ~policy:c.Config.unroll f) in
        record ~changed:(r.Unroll.full + r.Unroll.partial > 0) t;
        Some r
  in
  let t, converted = timed "ifconv" (fun () -> Ifconv.run f) in
  record ~changed:(converted > 0) t;
  let merged =
    match unroll_report with
    | None -> 0
    | Some _ ->
        let t, m = timed "jam" (fun () -> Unroll_and_jam.run f) in
        record ~changed:(m > 0) t;
        m
  in
  (* Unrolling substitutes constants for induction-variable uses, so
     the copies carry address arithmetic the first fold never saw
     (iv*stride, iv+offset with iv now literal).  Re-fold and
     re-simplify so the unrolled body reaches the same canonical form
     as hand-unrolled source before CSE and the vectorizer price
     it. *)
  let unrolled_any =
    match unroll_report with
    | Some r -> r.Unroll.full + r.Unroll.partial > 0
    | None -> false
  in
  if unrolled_any then begin
    let t, n = timed "fold2" (fun () -> Fold.run f) in
    record ~changed:(n > 0) t;
    let t, n = timed "simplify2" (fun () -> Simplify.run f) in
    record ~changed:(n > 0) t
  end;
  (* Flattening branches (and folding unrolled addresses) exposes
     duplicates CSE could not see across blocks. *)
  if converted > 0 || merged > 0 || unrolled_any then begin
    let t, n = timed "cse2" (fun () -> Cse.run f) in
    record ~changed:(n > 0) t
  end;
  let vect_report =
    match setting with
    | None -> None
    | Some config ->
        let iid0 = f.Defs.next_iid in
        let t, rep =
          timed "slp" (fun () -> Vectorize.run ?on_graph config f)
        in
        (* Every vectorizer rewrite creates instructions: codegen of a
           committed tree, a reduction, and a Super-Node massage, which
           stays in the IR even when its tree is rejected.  A run that
           left the id counter where it was left the IR untouched. *)
        record ~changed:(f.Defs.next_iid > iid0) t;
        (* Revec re-widening: re-pack the bundles the vectorizer (or
           an earlier, narrower compile) committed toward the target's
           full register width.  Runs before DCE so the dead narrow
           chains it strands are swept by the pass that follows. *)
        if config.Config.revec then begin
          let t, rr =
            timed "revec" (fun () ->
                Revec.run ~model:config.Config.model ~target:config.Config.target f)
          in
          record ~changed:(rr.Revec.pairs > 0) t;
          rep.Vectorize.stats.Stats.revec_pairs <- rr.Revec.pairs;
          rep.Vectorize.stats.Stats.revec_widened <- rr.Revec.widened
        end;
        (* The loop passes ran before the vectorizer; their counters
           join the record it returned. *)
        Option.iter
          (fun (r : Unroll.report) ->
            let s = rep.Vectorize.stats in
            s.Stats.loops_found <- r.Unroll.loops;
            s.Stats.loops_counted <- r.Unroll.counted;
            s.Stats.loops_unrolled_full <- r.Unroll.full;
            s.Stats.loops_unrolled_partial <- r.Unroll.partial;
            s.Stats.loop_blocks_jammed <- merged)
          unroll_report;
        Some rep
  in
  let t, n = timed "dce" (fun () -> Dce.run f) in
  record ~changed:(n > 0) t;
  let t, () = timed "verify" (fun () -> Verifier.verify_exn f) in
  record t;
  let total_seconds = Stats.now_s () -. t0 in
  let validation =
    if not validate then None
    else begin
      (* The whole-pipeline verdict compares the untouched input
         against the final IR — the end-to-end guarantee the per-pass
         verdicts decompose.  Both snapshots are already captured: the
         input's, and the last recorded pass's (the "verify" pass that
         follows never rewrites). *)
      let tv0 = Stats.now_s () in
      let end_verdict =
        Snslp_lint.Validate.compare_snapshots ?tolerance
          (Option.get !first_snap) (Option.get !prev_snap)
      in
      validate_seconds := !validate_seconds +. (Stats.now_s () -. tv0);
      Some
        {
          pass_verdicts = List.rev !pass_verdicts;
          graph_findings = !graph_findings;
          end_verdict;
          validate_seconds = !validate_seconds;
        }
    end
  in
  {
    func = f;
    vect_report;
    timings = List.rev !timings;
    total_seconds;
    validation;
  }
