(* Dead code elimination: erase pure instructions with no uses, by
   worklist over a use-count table (linear).  Stores and branch
   conditions are roots. *)

open Snslp_ir

let run (func : Defs.func) : int =
  let use_count : (int, int) Hashtbl.t = Hashtbl.create 128 in
  let bump v d =
    match v with
    | Defs.Instr i ->
        let c = try Hashtbl.find use_count i.Defs.iid with Not_found -> 0 in
        Hashtbl.replace use_count i.Defs.iid (c + d)
    | Defs.Const _ | Defs.Undef _ | Defs.Arg _ -> ()
  in
  let roots = Hashtbl.create 8 in
  List.iter
    (fun (b : Defs.block) ->
      Block.iter (fun (i : Defs.instr) -> Array.iter (fun o -> bump o 1) i.Defs.ops) b;
      match Block.terminator b with
      | Defs.Cond_br (c, _, _) -> (
          match c with Defs.Instr i -> Hashtbl.replace roots i.Defs.iid () | _ -> ())
      | _ -> ())
    (Func.blocks func);
  let uses i =
    match Hashtbl.find_opt use_count i.Defs.iid with Some c -> c | None -> 0
  in
  let dead (i : Defs.instr) =
    Instr.has_result i && (not (Hashtbl.mem roots i.Defs.iid)) && uses i = 0
  in
  let erased = Hashtbl.create 64 in
  let worklist = Queue.create () in
  Func.iter_instrs (fun i -> if dead i then Queue.add i worklist) func;
  while not (Queue.is_empty worklist) do
    let i = Queue.pop worklist in
    if not (Hashtbl.mem erased i.Defs.iid) then begin
      Hashtbl.replace erased i.Defs.iid ();
      Array.iter
        (fun o ->
          bump o (-1);
          match o with
          | Defs.Instr d -> if dead d then Queue.add d worklist
          | Defs.Const _ | Defs.Undef _ | Defs.Arg _ -> ())
        i.Defs.ops
    end
  done;
  List.iter
    (fun (b : Defs.block) ->
      Block.discard_if b (fun (i : Defs.instr) -> Hashtbl.mem erased i.Defs.iid))
    (Func.blocks func);
  Hashtbl.length erased
