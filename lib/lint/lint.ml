(* Front door of the analyzer: run the checker suite, and re-derive
   super-node graph invariants through the vectorizer's observation
   hook. *)

open Snslp_ir

let run ?bound (f : Defs.func) : Finding.t list = Checks.all ?bound f

(* Vectorize a clone (the caller's IR is left untouched) and check
   every graph the builder produces — including graphs the cost model
   later rejects, which never reach the output IR but still must obey
   the paper's legality rules. *)
let vector_invariants (config : Snslp_vectorizer.Config.t) (f : Defs.func) :
    Finding.t list =
  let copy = Func.clone f in
  let acc = ref [] in
  let on_graph g =
    List.iter
      (fun msg ->
        acc :=
          Finding.v_at ~check:"graph-invariant" Finding.Error f "slp graph" msg :: !acc)
      (Snslp_vectorizer.Invariants.check g)
  in
  ignore (Snslp_vectorizer.Vectorize.run ~on_graph config copy);
  List.rev !acc
