(* Shared machinery for forward rewriting passes.

   Because definitions precede uses, a single forward sweep that (a)
   rewrites each instruction's operands through an accumulated
   replacement map and (b) optionally decides to replace the
   instruction itself, reaches a fixpoint in one pass — constant
   folding cascades, CSE sees canonical operands, and no quadratic
   replace-all-uses scans are needed.

   The replacement map is an array indexed by instruction id, sized
   from the function's [next_iid] when the sweep starts: the steps
   create no instructions, so every id the sweep meets is below that
   size. *)

open Snslp_ir

type ctx = {
  repl : Defs.value option array; (* iid -> replacement value *)
  mutable count : int;
}

(* [i]'s slot in the map.  An id past the map means the function's
   [next_iid] is stale, which is a bug: fail loudly. *)
let slot (ctx : ctx) (i : Defs.instr) =
  if i.Defs.iid >= Array.length ctx.repl then
    invalid_arg
      (Printf.sprintf "Rewrite: %%%s has iid %d, past next_iid %d at sweep start" i.Defs.iname
         i.Defs.iid (Array.length ctx.repl));
  i.Defs.iid

let rec resolve (ctx : ctx) (v : Defs.value) : Defs.value =
  match v with
  | Defs.Instr i -> (
      match ctx.repl.(slot ctx i) with
      | Some v' -> resolve ctx v' (* replacements may chain *)
      | None -> v)
  | Defs.Const _ | Defs.Undef _ | Defs.Arg _ -> v

let rewrite_operands (ctx : ctx) (i : Defs.instr) =
  Array.iteri
    (fun n o ->
      let o' = resolve ctx o in
      if not (o' == o) then Instr.set_operand i n o')
    i.Defs.ops

let rewrite_terminator (ctx : ctx) (b : Defs.block) =
  match b.Defs.term with
  | Defs.Cond_br (c, t1, t2) ->
      let c' = resolve ctx c in
      if not (c' == c) then b.Defs.term <- Defs.Cond_br (c', t1, t2)
  | Defs.Ret | Defs.Br _ | Defs.Unterminated -> ()

(* [run func step] sweeps every block forward: operands are rewritten
   first, then [step] may decide to replace the instruction, which is
   then discarded on the spot ({!Block.iter} has read its successor
   already).  Terminator conditions are rewritten too.  Returns the
   number of replacements.

   The single sweep reaches every use that textually follows its
   definition, but not uses that precede it — a phi's back-edge
   operand, or any use in a block listed before the defining block.
   A closing pass resolves those through the final replacement map, so
   no dropped instruction stays referenced. *)
let run (func : Defs.func) (step : Defs.block -> Defs.instr -> Defs.value option) : int =
  let ctx = { repl = Array.make func.Defs.next_iid None; count = 0 } in
  List.iter
    (fun (b : Defs.block) ->
      Block.iter
        (fun (i : Defs.instr) ->
          rewrite_operands ctx i;
          match step b i with
          | Some v ->
              ctx.repl.(slot ctx i) <- Some v;
              ctx.count <- ctx.count + 1;
              (* Gone for good: its later users are rewritten as
                 the sweep reaches them, earlier ones by the closing
                 pass. *)
              Block.remove b i;
              Use.unregister_all i
          | None -> ())
        b;
      rewrite_terminator ctx b)
    (Func.blocks func);
  if ctx.count > 0 then
    List.iter
      (fun (b : Defs.block) ->
        Block.iter (rewrite_operands ctx) b;
        rewrite_terminator ctx b)
      (Func.blocks func);
  ctx.count
