(* Simulated performance measurement.

   The paper measures wall time on an Intel i5-6440HQ; we do not have
   that machine (or any way to execute the generated vector code
   natively), so execution time is *simulated*: the interpreter runs
   the compiled IR and a cost in abstract cycles is charged per
   executed instruction from the X86-flavoured cost model, divided by
   the target's issue width.  This preserves exactly the trade-offs
   the paper's speedups come from — a vector op replaces [lanes]
   scalar ops at roughly the cost of one, gathers pay per lane,
   alternating ops are slightly dearer than uniform ones, divides
   dominate everything — without pretending to predict absolute
   nanoseconds.  See DESIGN.md §2 for the substitution rationale. *)

open Snslp_ir
open Snslp_costmodel
open Snslp_interp

(* Cost, in abstract cycles, of one dynamic execution of [i] — the
   shared pricing function lives in {!Model} so the global pack
   selector charges exactly what the simulator will. *)
let instr_cost (model : Model.t) (target : Target.t) (i : Defs.instr) : float =
  Model.instr_cost model target i

type result = { cycles : float; instrs_executed : int }

(* [measure func ~memory ~make_args ~iters] executes [func] [iters]
   times (argument vector built per iteration, so a loop counter can
   be threaded through) and reports total simulated cycles.  Runs on
   the compiled interpreter engine (the plan is staged once for the
   whole loop); per-instruction costs are memoized by id —
   [instr_cost] is a pure function of the static instruction. *)
let measure ?(model = Model.x86) ?(target = Target.sse) (func : Defs.func)
    ~(memory : Memory.t)
    ~(make_args : int -> Rvalue.t array) ~(iters : int) : result =
  let cycles = ref 0.0 in
  let count = ref 0 in
  let max_iid = Func.fold_instrs (fun m i -> max m i.Defs.iid) (-1) func in
  let costs = Array.make (max_iid + 1) Float.nan in
  let on_exec (i : Defs.instr) =
    let id = i.Defs.iid in
    let c = costs.(id) in
    let c =
      if Float.is_nan c then begin
        let c = instr_cost model target i in
        costs.(id) <- c;
        c
      end
      else c
    in
    cycles := !cycles +. c;
    incr count
  in
  let plan = Interp.compile func in
  for it = 0 to iters - 1 do
    ignore (Interp.execute ~on_exec plan ~args:(make_args it) ~memory)
  done;
  { cycles = !cycles /. float_of_int target.Target.issue_width; instrs_executed = !count }

let speedup ~(baseline : result) ~(candidate : result) =
  baseline.cycles /. candidate.cycles
