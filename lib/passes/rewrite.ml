(* Shared machinery for forward rewriting passes.

   One forward sweep offers every instruction to a [step], which may
   replace it with a value.  A replaced instruction's attached users
   are redirected on the spot through its use list, and the
   conditional branches that test it through an index of branch
   conditions read when the sweep starts.  Because definitions precede
   uses, every instruction the sweep reaches already reads the final
   values: constant folding cascades and CSE sees canonical operands
   in one pass.  Uses that precede their definition (a phi's back
   edge, a use in a block listed before the defining one) are
   redirected the same way, so no use of a dropped instruction
   survives the sweep.  The work is the replaced instructions' uses,
   not the function. *)

open Snslp_ir

(* [run func step] sweeps every block forward; [step] may decide to
   replace the instruction, which is then redirected and discarded on
   the spot ({!Block.iter} has read its successor already).  Returns
   the number of replacements. *)
let run (func : Defs.func) (step : Defs.block -> Defs.instr -> Defs.value option) : int =
  (* The blocks whose conditional branch tests an instruction, by the
     instruction's id. *)
  let branches : (int, Defs.block) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (b : Defs.block) ->
      match b.Defs.term with
      | Defs.Cond_br (Defs.Instr c, _, _) -> Hashtbl.add branches c.Defs.iid b
      | Defs.Cond_br _ | Defs.Ret | Defs.Br _ | Defs.Unterminated -> ())
    (Func.blocks func);
  let repoint (i : Defs.instr) (v : Defs.value) =
    List.iter
      (fun (b : Defs.block) ->
        Hashtbl.remove branches i.Defs.iid;
        (match b.Defs.term with
        | Defs.Cond_br (_, t1, t2) -> b.Defs.term <- Defs.Cond_br (v, t1, t2)
        | Defs.Ret | Defs.Br _ | Defs.Unterminated -> ());
        (* The replacement may be replaced in turn. *)
        match v with
        | Defs.Instr d -> Hashtbl.add branches d.Defs.iid b
        | Defs.Const _ | Defs.Undef _ | Defs.Arg _ -> ())
      (Hashtbl.find_all branches i.Defs.iid)
  in
  let count = ref 0 in
  List.iter
    (fun (b : Defs.block) ->
      Block.iter
        (fun (i : Defs.instr) ->
          match step b i with
          | Some v ->
              incr count;
              (* [Use.iter] has read the next entry before
                 [Instr.set_operand] moves this one to [v]'s chain.
                 Detached users are left alone, as a walk over the
                 blocks would. *)
              Use.iter
                (fun (u : Defs.instr) n -> if u.Defs.iblock <> None then Instr.set_operand u n v)
                i;
              repoint i v;
              Block.remove b i;
              Use.unregister_all i
          | None -> ())
        b)
    (Func.blocks func);
  !count
