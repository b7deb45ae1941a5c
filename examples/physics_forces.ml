(* Molecular-dynamics force kernels (the 435.gromacs / 444.namd
   scenario), end to end: KernelC -> IR -> Super-Node vectorization ->
   simulated execution, plus a look inside the Super-Node machinery —
   chains, APOs and the reordering the vectorizer chose.

     dune exec examples/physics_forces.exe *)

open Snslp_ir
open Snslp_vectorizer
open Snslp_passes
open Snslp_kernels

let source =
  {|
kernel lj_force(double fx[], double dx[], double dy[], double fs[], long i) {
  fx[i+0] = dx[i+0]*fs[i+0] - dy[i+0]*fs[i+0] + dx[i+0];
  fx[i+1] = dx[i+1] + dx[i+1]*fs[i+1] - dy[i+1]*fs[i+1];
}
|}

let () =
  let func = Snslp_frontend.Frontend.compile_one source in

  (* Peek inside: discover the per-lane chains the Super-Node is built
     from and print each leaf with its Accumulated Path Operation. *)
  let canonical = (Pipeline.run ~setting:None func).Pipeline.func in
  Fmt.pr "--- per-lane chains (trunk + APO-annotated leaves) ---@.";
  Func.iter_instrs
    (fun i ->
      if Instr.is_binop i then
        match Chain.discover Config.snslp canonical i with
        | Some chain -> Fmt.pr "  %a@." Chain.pp chain
        | None -> ())
    canonical;

  (* Vectorize and show the decision trail. *)
  let result = Pipeline.run ~setting:(Some Config.snslp) func in
  (match result.Pipeline.vect_report with
  | Some rep ->
      List.iter
        (fun (t : Vectorize.tree_report) ->
          Fmt.pr "@.--- SLP graph ---@.%s" (Lazy.force t.Vectorize.graph_dump);
          Fmt.pr "cost %g -> %s@." t.Vectorize.cost.Cost.total
            (if t.Vectorize.vectorized then "VECTORIZED" else "rejected"))
        rep.Vectorize.trees;
      Fmt.pr "stats: %a@." Stats.pp rep.Vectorize.stats
  | None -> ());
  Fmt.pr "@.--- vector code ---@.%a@." Printer.pp_func result.Pipeline.func;

  (* Run the force loop under the performance simulator. *)
  let k = Option.get (Registry.find "gromacs_force") in
  let wl = Workload.prepare k in
  let o3 = Pipeline.run ~setting:None func in
  let base = Workload.measure wl o3.Pipeline.func in
  let vec = Workload.measure wl result.Pipeline.func in
  Fmt.pr "simulated speedup over O3: %.2fx over %d iterations@."
    (Snslp_simperf.Simperf.speedup ~baseline:base ~candidate:vec)
    wl.Workload.iters
