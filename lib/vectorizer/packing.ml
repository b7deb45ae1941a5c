(* Global pack selection (goSLP-style, PAPERS.md).

   The greedy SN-SLP driver commits each profitable tree the moment it
   sees one, root-first, aligned-chunk-first — an early pairing can
   foreclose a better global packing (a shifted store window, a
   narrower width, a different operand permutation, or simply
   declining a tree the machine model dislikes).  This module supplies
   the two halves of the global alternative:

   - [enumerate]: the pack-candidate space.  For every maximal run of
     adjacent stores, every power-of-two width, every contiguous
     window offset (not just the aligned chunks the greedy driver
     cuts) and every operand-reorder strategy, build the SLP trial
     graph on a scratch clone and record its modeled cost and the
     instruction set it would claim.  Legality is whatever
     [Graph.build] accepts — the same family/inverse and bundling
     rules as greedy, and the same admission of every vector group
     against the tree so far, so every estimate prices a tree codegen
     could schedule — and every trial graph is offered to the
     caller's [?on_graph] hook so the invariant checker can
     cross-examine it.

   - [solve]: beam search with a branch-and-bound admissible bound
     over candidate subsets.  Candidates are considered in the greedy
     preference order; each search level branches on including or
     excluding one candidate, compatibility is claim-set disjointness,
     and a state is cut when even claiming every remaining profitable
     candidate (the admissible bound — it ignores all conflicts, so it
     never underestimates how good a completion could be) cannot beat
     the incumbent.  Pure OCaml, no external solver.

   The final arbiter is [static_cost]: the machine-model (x86) cost of
   the live instructions of a compiled function, which for the
   straight-line kernels this repo compiles is exactly proportional to
   the cycles {!Snslp_simperf.Simperf.measure} charges per iteration.
   The vectorizer replays the best plans and keeps whichever result —
   the greedy incumbent included — this metric ranks cheapest. *)

open Snslp_ir
open Snslp_analysis
open Snslp_costmodel

type candidate = {
  cid : int; (* enumeration order = greedy preference order *)
  bid : int; (* owning block id *)
  seed_iids : int list; (* store iids, lane order *)
  width : int;
  reorder : Graph.reorder;
  est_cost : float; (* Cost.of_graph total of the trial graph *)
  claims : int list; (* sorted iids the tree would claim *)
}

module IntSet = Set.Make (Int)

let est_profitable (c : candidate) = c.est_cost < 0.0

(* --- Candidate enumeration --------------------------------------------- *)

(* [enumerate ~node_budget config func] builds every trial graph on a
   private clone of [func] — Super-Node massaging mutates the IR even
   for rejected trees, so the caller's function is never touched.  One
   clone serves all candidates: massage rewrites are semantics- and
   cost-preserving canonicalizations, and the replay that commits a
   chosen plan re-runs them from a fresh clone anyway.  Instruction
   and block ids are preserved by [Func.clone], so the returned seed
   iids resolve in any other clone of [func].

   [node_budget] caps the total SLP-graph nodes formed across trial
   builds (<= 0 = unlimited); enumeration stops when it is exhausted,
   which degrades the search space gracefully — the greedy incumbent
   is evaluated separately and is never lost.

   One look-ahead memo serves the whole enumeration, as one serves
   every vectorizer run: its entries are keyed by per-function
   instruction ids, and massage rewrites inside a build clear it, so
   a served score always equals the uncached recursion. *)
let enumerate ?stats ?on_graph ~node_budget (config : Config.t) (func : Defs.func) :
    candidate list =
  let clone = Func.clone func in
  let cache = Lookahead.cache_create () in
  let lanes_for = Target.lanes_for config.Config.target in
  let next_cid = ref 0 in
  let nodes_built = ref 0 in
  let out = ref [] in
  let budget_left () = node_budget <= 0 || !nodes_built < node_budget in
  List.iter
    (fun (block : Defs.block) ->
      let runs = Seeds.runs block in
      if runs <> [] then begin
        (* One dependence analysis per block, exactly as the
           vectorizer driver shares it; it re-reads the block after a
           massage rewrite inside a build. *)
        let time f = Stats.time ?stats Stats.Deps f in
        let deps = time (fun () -> Deps.of_block ~time block) in
        let try_candidate ~width ~reorder seed =
          match
            Stats.time ?stats Stats.Graph (fun () ->
                Graph.build ?stats ~deps ~cache ~reorder config clone block seed)
          with
          | None -> None
          | Some g ->
              (match on_graph with Some f -> f g | None -> ());
              nodes_built := !nodes_built + List.length (Graph.nodes g);
              let cost = Stats.time ?stats Stats.Cost (fun () -> Cost.of_graph config g) in
              let claims =
                Int_table.fold (fun iid _ acc -> iid :: acc) g.Graph.claimed []
                |> List.sort Int.compare
              in
              let c =
                {
                  cid = !next_cid;
                  bid = block.Defs.bid;
                  seed_iids = List.map (fun (i : Defs.instr) -> i.Defs.iid) seed;
                  width;
                  reorder;
                  est_cost = cost.Cost.total;
                  claims;
                }
              in
              incr next_cid;
              (match stats with
              | Some s -> s.Stats.pack_candidates <- s.Stats.pack_candidates + 1
              | None -> ());
              out := c :: !out;
              Some c
        in
        List.iter
          (fun run ->
            let arr = Array.of_list run in
            let len = Array.length arr in
            let max_width = lanes_for (Seeds.elem_of_run run) in
            List.iter
              (fun width ->
                for offset = 0 to len - width do
                  if budget_left () then begin
                    let seed = Array.to_list (Array.sub arr offset width) in
                    let chain = try_candidate ~width ~reorder:Graph.R_chain seed in
                    (* The exhaustive permutation only exists for >= 4
                       lanes (with 2 the chain already tries both
                       orders) and only earns a slot when it actually
                       departs from the chain's result. *)
                    if width >= 4 && config.Config.mode <> Config.Vanilla && budget_left ()
                    then
                      match try_candidate ~width ~reorder:Graph.R_exhaustive seed with
                      | Some exh -> (
                          match chain with
                          | Some ch
                            when ch.est_cost = exh.est_cost && ch.claims = exh.claims ->
                              out := List.filter (fun c -> c.cid <> exh.cid) !out
                          | _ -> ())
                      | None -> ()
                  end
                done)
              (Seeds.widths ~max_width))
          runs
      end)
    (Func.blocks clone);
  List.rev !out

(* --- Beam search with a branch-and-bound bound ------------------------- *)

type state = {
  chosen : candidate list; (* newest first; canonical, since decisions
                              are taken in cid order *)
  claimed : IntSet.t;
  cost : float; (* sum of est_cost over chosen *)
}

let eps = 1e-9

(* The most plans [solve] returns: the portfolio replays each one as a
   trial compile of the whole function. *)
let max_plans = 3

(* [solve ~beam cands] returns up to [max_plans] distinct candidate
   subsets (plans), best modeled cost first, each strictly
   better than the empty plan.  [cands] must be in cid order — the
   greedy preference order — and should be pre-filtered to profitable
   candidates (the bound treats positive-cost candidates as
   never-included).

   The search walks the candidate list once; each level branches every
   surviving state on include (when the claim sets are disjoint) and
   exclude.  The bound of a state is its cost so far plus the sum of
   every remaining candidate's profit ignoring conflicts — admissible,
   so cutting states whose bound cannot beat the incumbent never
   discards an optimal completion; the beam truncation afterwards is
   the only lossy step, and with [beam] at least 2^levels the search
   is exact. *)
let solve ?stats ~beam (cands : candidate list) : candidate list list =
  let n = List.length cands in
  if n = 0 || beam < 2 then []
  else begin
    let arr = Array.of_list cands in
    (* suffix.(i) = best conceivable gain from candidates i.. *)
    let suffix = Array.make (n + 1) 0.0 in
    for i = n - 1 downto 0 do
      suffix.(i) <- suffix.(i + 1) +. Float.min arr.(i).est_cost 0.0
    done;
    let expansions = ref 0 in
    let pruned = ref 0 in
    let incumbent = ref 0.0 (* the empty plan *) in
    let states = ref [ { chosen = []; claimed = IntSet.empty; cost = 0.0 } ] in
    for i = 0 to n - 1 do
      let c = arr.(i) in
      let cl = IntSet.of_list c.claims in
      let next =
        List.concat_map
          (fun s ->
            incr expansions;
            if IntSet.disjoint s.claimed cl then
              [
                s;
                {
                  chosen = c :: s.chosen;
                  claimed = IntSet.union s.claimed cl;
                  cost = s.cost +. c.est_cost;
                };
              ]
            else [ s ])
          !states
      in
      List.iter (fun s -> if s.cost < !incumbent then incumbent := s.cost) next;
      let keep, cut =
        List.partition (fun s -> s.cost +. suffix.(i + 1) <= !incumbent +. eps) next
      in
      pruned := !pruned + List.length cut;
      let keep =
        if List.length keep <= beam then keep
        else begin
          let bound = suffix.(i + 1) in
          let ranked =
            List.stable_sort
              (fun a b -> Float.compare (a.cost +. bound) (b.cost +. bound))
              keep
          in
          let rec take k = function
            | x :: rest when k > 0 -> x :: take (k - 1) rest
            | _ -> []
          in
          pruned := !pruned + (List.length keep - beam);
          take beam ranked
        end
      in
      states := keep
    done;
    (match stats with
    | Some s ->
        s.Stats.pack_expansions <- s.Stats.pack_expansions + !expansions;
        s.Stats.pack_pruned <- s.Stats.pack_pruned + !pruned
    | None -> ());
    let final = List.stable_sort (fun a b -> Float.compare a.cost b.cost) !states in
    let rec take k = function
      | x :: rest when k > 0 -> x :: take (k - 1) rest
      | _ -> []
    in
    final
    |> List.filter (fun s -> s.cost < -.eps)
    |> take max_plans
    |> List.map (fun s -> List.rev s.chosen)
  end

(* --- The portfolio arbiter --------------------------------------------- *)

(* [static_cost config func] — machine-model cost of one execution of
   [func]'s live instructions, in abstract cycles (issue-width
   scaled).  Liveness is transitive reachability from the stores and
   branch conditions — what DCE keeps — so trial variants are compared
   on the code that will survive the pipeline, not on dead leftovers
   of rejected massages.

   The model is {!Model.x86} regardless of the compile-time
   [config.model]: the simulator charges x86 costs, and the whole
   point of the portfolio pick is to rank plans by the metric the
   final measurement uses (the compile-time model stays in charge of
   candidate profitability, preserving the paper's mispredictions for
   the greedy path).  For straight-line functions the result is
   proportional to simulated cycles per iteration. *)
let static_cost (config : Config.t) (func : Defs.func) : float =
  let live = Int_table.create 64 in
  let rec mark (v : Defs.value) =
    match v with
    | Defs.Instr i ->
        if not (Int_table.mem live i.Defs.iid) then begin
          Int_table.add live i.Defs.iid ();
          Array.iter mark i.Defs.ops
        end
    | Defs.Const _ | Defs.Undef _ | Defs.Arg _ -> ()
  in
  List.iter
    (fun (b : Defs.block) ->
      Block.iter (fun (i : Defs.instr) -> if Instr.is_store i then mark (Defs.Instr i)) b;
      match b.Defs.term with
      | Defs.Cond_br (c, _, _) -> mark c
      | Defs.Ret | Defs.Br _ | Defs.Unterminated -> ())
    (Func.blocks func);
  let total = ref 0.0 in
  Func.iter_instrs
    (fun i ->
      if Int_table.mem live i.Defs.iid then
        total := !total +. Model.instr_cost Model.x86 config.Config.target i)
    func;
  !total /. float_of_int config.Config.target.Target.issue_width
