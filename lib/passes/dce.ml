(* Dead code elimination: erase pure instructions with no uses, by
   worklist over the IR's own use lists (linear).  Stores and branch
   conditions are roots.  Liveness is {!Func.has_uses}: only users
   attached to a block count, so an instruction whose last user was
   detached is dead. *)

open Snslp_ir

let run (func : Defs.func) : int =
  (* Branch conditions, marked by instruction id. *)
  let cond = Bytes.make func.Defs.next_iid '\000' in
  List.iter
    (fun (b : Defs.block) ->
      match Block.terminator b with
      | Defs.Cond_br (Defs.Instr i, _, _) -> Bytes.set cond i.Defs.iid '\001'
      | _ -> ())
    (Func.blocks func);
  let dead (i : Defs.instr) =
    Instr.has_result i
    && Bytes.get cond i.Defs.iid = '\000'
    && not (Func.has_uses func (Defs.Instr i))
  in
  let worklist = Queue.create () in
  Func.iter_instrs (fun i -> if dead i then Queue.add i worklist) func;
  let erased = ref 0 in
  while not (Queue.is_empty worklist) do
    let i = Queue.pop worklist in
    (* An instruction may be queued twice (it can fill two slots of
       one erased user); the pop that finds it still attached erases
       it, and a dead instruction never gains a use. *)
    if i.Defs.iblock <> None then begin
      Func.erase_instr func i;
      incr erased;
      Array.iter
        (fun o ->
          match o with
          | Defs.Instr d when d.Defs.iblock <> None && dead d -> Queue.add d worklist
          | Defs.Instr _ | Defs.Const _ | Defs.Undef _ | Defs.Arg _ -> ())
        i.Defs.ops
    end
  done;
  !erased
