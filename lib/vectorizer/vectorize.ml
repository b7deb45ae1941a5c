(* The SLP vectorization pass (paper Figure 1, outer loop).

   For every block: collect seed groups of adjacent stores, build the
   SLP graph for each, estimate its cost, and when profitable replace
   the scalar groups with vector code.  Statistics are accumulated the
   way the paper reports them — Multi/Super-Node sizes count only for
   graphs that were actually vectorized. *)

open Snslp_ir
open Snslp_analysis
open Snslp_costmodel

type tree_report = {
  seed : string; (* printable description of the seed group *)
  cost : Cost.breakdown;
  vectorized : bool;
  graph_dump : string Lazy.t; (* human-readable node listing, rendered when read *)
}

type report = {
  config : Config.t;
  stats : Stats.t;
  trees : tree_report list;
}

let log_src = Logs.Src.create "snslp.vectorize" ~doc:"SLP vectorizer"

module Log = (val Logs.src_log log_src)

let describe_seed (seed : Defs.instr list) =
  String.concat "; " (List.map Instr.to_string seed)

let count_kind (g : Graph.t) kindp =
  List.length (List.filter (fun (n : Graph.node) -> kindp n.Graph.kind) (Graph.nodes g))

(* Attempt one seed group; returns true if it was vectorized.  One
   [Deps.t] serves every seed of the block and re-reads it only after
   a rewrite actually changed the IR, so its positions and accesses by
   class survive across rejected and retried seeds.  [cache] is the
   run's look-ahead memo. *)
let try_seed ~reorder (config : Config.t) (stats : Stats.t) trees func block
    ~(cache : Lookahead.cache) ~(deps : Deps.t) ~(scope : Verifier.scope)
    ~(on_graph : (Graph.t -> unit) option) (seed : Defs.instr list) : bool =
  (* Earlier trees may have consumed these stores. *)
  if not (List.for_all (Block.mem block) seed) then false
  else begin
    match
      Stats.time ~stats Stats.Graph (fun () ->
          Graph.build ~stats ~deps ~cache ~reorder config func block seed)
    with
    | None -> false
    | Some g ->
        let cost = Stats.time ~stats Stats.Cost (fun () -> Cost.of_graph config g) in
        (match on_graph with Some f -> f g | None -> ());
        stats.Stats.graphs_built <- stats.Stats.graphs_built + 1;
        stats.Stats.nodes_formed <- stats.Stats.nodes_formed + List.length (Graph.nodes g);
        stats.Stats.gathers <-
          stats.Stats.gathers
          + count_kind g (function
              | Graph.K_gather | Graph.K_splat -> true
              | Graph.K_vec | Graph.K_alt _ | Graph.K_perm _ -> false);
        let vectorized = Cost.profitable cost in
        Log.debug (fun m ->
            m "seed [%s]: %a -> %s" (describe_seed seed) Cost.pp cost
              (if vectorized then "vectorize" else "reject"));
        if vectorized then begin
          let rep = Stats.time ~stats Stats.Codegen (fun () -> Codegen.run ~scope g) in
          (* Codegen rewrote the block: the memo's entries now
             describe dead IR.  Its counters survive the clear. *)
          Lookahead.cache_clear cache;
          stats.Stats.graphs_vectorized <- stats.Stats.graphs_vectorized + 1;
          stats.Stats.vector_instrs_emitted <-
            stats.Stats.vector_instrs_emitted + rep.Codegen.vector_instrs;
          stats.Stats.scalars_erased <-
            stats.Stats.scalars_erased + rep.Codegen.scalars_erased;
          List.iter (fun size -> Stats.record_supernode stats ~size) g.Graph.supernode_sizes
        end;
        (* The dump prints node kinds, scalar names and child ids,
           which nothing changes once the graph is built (codegen
           names only the instructions it creates), so it can wait
           until it is read.  The seed line prints the stores'
           operands, which later trees rewrite, so it is taken now. *)
        let nodes = Graph.nodes g in
        trees :=
          {
            seed = describe_seed seed;
            cost;
            vectorized;
            graph_dump = lazy (Fmt.str "%a" Graph.pp_nodes nodes);
          }
          :: !trees;
        vectorized
  end

(* Where a driver run takes its seed groups from. *)
type source =
  | Store_runs
      (* the paper's greedy root-first driver: runs of adjacent stores
         at every width *)
  | Plan of Packing.candidate list
      (* a global-packing solver plan to replay (Config.Global) *)

(* The greedy seeds of one block.  Each run of adjacent stores is
   first attempted at the target's full vector width; stores of
   rejected groups (and the short tail of the run) are retried at the
   next narrower power-of-two width, as LLVM's SLP does. *)
let store_run_seeds ~lanes_for runs attempt =
  List.iter
    (fun run ->
      let max_width = lanes_for (Seeds.elem_of_run run) in
      let leftover = ref run in
      List.iter
        (fun width ->
          (* Stores not covered at wider widths may no longer be
             contiguous: re-split before chunking. *)
          let next = ref [] in
          List.iter
            (fun sub_run ->
              if List.length sub_run >= width then begin
                let groups, rest = Seeds.chunk ~width sub_run in
                let failed =
                  List.concat_map
                    (fun seed -> if attempt Graph.R_chain seed then [] else seed)
                    groups
                in
                next := !next @ failed @ rest
              end
              else next := !next @ sub_run)
            (Seeds.recut !leftover);
          leftover := !next)
        (Seeds.widths ~max_width))
    runs

(* The plan's seeds in [block]: [None] when the plan has no candidate
   there, otherwise the candidates whose stores all resolve, in plan
   (= greedy preference) order, with their operand-reorder strategies.
   A replay ([drive]) and its prediction ([plan_attempts]) both resolve
   here.  A replayed tree is rebuilt on the live IR and the usual
   profitability test decides the commit: estimates were measured on a
   scratch clone whose massage state can differ slightly, so it may
   legitimately be rejected.  Claim-disjointness of the plan guarantees
   the chosen seeds never consume each other.  Seed iids resolve once
   per block: they name original stores, which a commit only ever
   erases (and [try_seed] skips seeds no longer in the block). *)
let plan_seeds plan (block : Defs.block) =
  match List.filter (fun (c : Packing.candidate) -> c.Packing.bid = block.Defs.bid) plan with
  | [] -> None
  | cands ->
      let by_iid = Int_table.create 16 in
      Block.iter (fun i -> Int_table.replace by_iid i.Defs.iid i) block;
      Some
        (List.filter_map
           (fun (c : Packing.candidate) ->
             let seed = List.filter_map (Int_table.find_opt by_iid) c.Packing.seed_iids in
             if List.length seed = List.length c.Packing.seed_iids then
               Some (c.Packing.reorder, seed)
             else None)
           cands)

(* [drive config source func] vectorizes [func] in place from the
   given seed source and returns the detailed report.  The shared
   per-function work happens here once for both sources.  One
   look-ahead memo serves every seed of the run: its entries are keyed
   by per-function instruction ids, and it is cleared after every IR
   rewrite (codegen here, massaging inside the graph builder), so a
   served score always equals the uncached recursion.  Every block
   with seeds gets one dependence analysis serving all of them; it
   charges its re-reads to the [deps] phase wherever a query triggers
   them, and its counters are harvested per block.  The memo's are
   read once at the end, and reductions and verification run last. *)
(* The seed attempts of one drive, block by block: every block the
   drive analysed, with each (reorder, seed store iids) it tried, in
   order.  A drive is a deterministic function of its input and this
   sequence. *)
type attempts = (int * (Graph.reorder * int list) list) list

let drive ?on_graph ?(record : attempts ref option) (config : Config.t) (source : source)
    (func : Defs.func) : report =
  let cache = Lookahead.cache_create () in
  (* Trees add and erase instructions, never blocks: one verification
     scope serves every tree's local check. *)
  let scope = Verifier.scope func in
  let stats = Stats.create () in
  let trees = ref [] in
  let lanes_for = Target.lanes_for config.Config.target in
  List.iter
    (fun (block : Defs.block) ->
      let seeds =
        match source with
        | Store_runs -> (
            match Seeds.runs block with
            | [] -> None
            | runs -> Some (store_run_seeds ~lanes_for runs))
        | Plan plan ->
            Option.map
              (fun seeds attempt ->
                List.iter (fun (reorder, seed) -> ignore (attempt reorder seed)) seeds)
              (plan_seeds plan block)
      in
      match seeds with
      | None -> ()
      | Some seeds ->
          stats.Stats.deps_builds <- stats.Stats.deps_builds + 1;
          let time f = Stats.time ~stats Stats.Deps f in
          let deps = time (fun () -> Deps.of_block ~time block) in
          let tried = ref [] in
          seeds (fun reorder seed ->
              tried := (reorder, List.map Instr.id seed) :: !tried;
              try_seed ~reorder config stats trees func block ~cache ~deps ~scope ~on_graph seed);
          Option.iter (fun r -> r := (block.Defs.bid, List.rev !tried) :: !r) record;
          Stats.add_deps stats deps)
    (Func.blocks func);
  let hits, misses = Lookahead.cache_stats cache in
  stats.Stats.lookahead_hits <- hits;
  stats.Stats.lookahead_misses <- misses;
  stats.Stats.reductions <-
    stats.Stats.reductions
    + Stats.time ~stats Stats.Reduction (fun () -> Reduction.run config func);
  Verifier.verify_exn func;
  Option.iter (fun r -> r := List.rev !r) record;
  { config; stats; trees = List.rev !trees }

(* The attempts a drive of [plan] on [func] makes, predicted without
   running it from the same resolution the drive makes.  Only the
   current block changes while a drive runs, so each block still holds
   its original stores when the drive reaches it. *)
let plan_attempts (func : Defs.func) (plan : Packing.candidate list) : attempts =
  List.filter_map
    (fun (block : Defs.block) ->
      Option.map
        (fun seeds ->
          (block.Defs.bid, List.map (fun (reorder, seed) -> (reorder, List.map Instr.id seed)) seeds))
        (plan_seeds plan block))
    (Func.blocks func)

(* The global path is a portfolio: run the untouched greedy driver on
   one clone, enumerate + solve + replay the best plans (and the
   always-cheap empty plan, which is how the portfolio gets to
   *decline* trees the compile-time model mispredicts) on others, rank
   every compiled result with the machine-model static cost, and
   transplant the winner into [func].  Greedy is scored first and ties
   require a strict improvement, so Global is never worse than Greedy
   under the metric, and [beam <= 1] (a single search hypothesis: the
   incumbent) reproduces Greedy bit-identically.  A plan whose
   predicted attempts are exactly the greedy run's would compile to
   the greedy result, so it is scored as that result instead of being
   replayed. *)
let run_global ?on_graph ~beam ~node_budget (config : Config.t)
    (func : Defs.func) : report =
  let greedy_func = Func.clone func in
  let greedy_attempts = ref [] in
  let greedy_rep = drive ?on_graph ~record:greedy_attempts config Store_runs greedy_func in
  let pack_stats = Stats.create () in
  let plans =
    if beam <= 1 then []
    else
      Stats.time ~stats:pack_stats Stats.Pack (fun () ->
          let cands =
            Packing.enumerate ~stats:pack_stats ?on_graph ~node_budget config func
          in
          let profitable = List.filter Packing.est_profitable cands in
          Packing.solve ~stats:pack_stats ~beam profitable)
  in
  let replays =
    if beam <= 1 then []
    else
      List.map
        (fun plan ->
          if plan_attempts func plan = !greedy_attempts then None
          else
            let f = Func.clone func in
            Some (f, drive ?on_graph config (Plan plan) f))
        (plans @ [ [] ])
  in
  pack_stats.Stats.pack_plans <- List.length replays;
  let greedy_cost = Packing.static_cost config greedy_func in
  let scored =
    (greedy_cost, greedy_func, greedy_rep)
    :: List.map
         (function
           | Some (f, rep) -> (Packing.static_cost config f, f, rep)
           | None -> (greedy_cost, greedy_func, greedy_rep))
         replays
  in
  let best =
    List.fold_left
      (fun (bc, bf, br) (c, f, r) -> if c < bc -. 1e-9 then (c, f, r) else (bc, bf, br))
      (List.hd scored) (List.tl scored)
  in
  let _, winner, winner_rep = best in
  func.Defs.blocks <- winner.Defs.blocks;
  func.Defs.next_iid <- winner.Defs.next_iid;
  func.Defs.next_bid <- winner.Defs.next_bid;
  Verifier.verify_exn func;
  Stats.add ~into:winner_rep.stats pack_stats;
  winner_rep

(* [run config func] — the packing-strategy dispatcher. *)
let run ?on_graph (config : Config.t) (func : Defs.func) : report =
  match config.Config.packing with
  | Config.Greedy -> drive ?on_graph config Store_runs func
  | Config.Global { beam; node_budget } ->
      run_global ?on_graph ~beam ~node_budget config func
