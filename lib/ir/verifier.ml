(* IR well-formedness checks.

   The verifier is run after the frontend and after every transforming
   pass; a transformation that produces ill-typed or ill-ordered IR is
   a bug in the transformation, so errors carry enough context to
   locate it. *)

open Defs

type error = { where : string; what : string }


let pp_error ppf e = Fmt.pf ppf "%s: %s" e.where e.what

(* Errors locate the offending instruction by its full pretty-printed
   form, not just its name — the IR being verified is by definition
   suspect, and "%7 = fadd f32 %3, %5" pinpoints the bug where "%7"
   only names it.  Printing a malformed instruction can itself trap
   (e.g. a store with no operands), hence the fallback.  Well-formed
   IR reports nothing, so the printing happens only inside [fail]. *)
let instr_where (i : instr) =
  try Instr.to_string i with _ -> Printf.sprintf "%%%s" i.iname

let check_instr (errors : error list ref) (i : instr) =
  let fail fmt =
    Printf.ksprintf (fun what -> errors := { where = instr_where i; what } :: !errors) fmt
  in
  let op_ty n = Value.ty i.ops.(n) in
  let expect_nops n =
    if Array.length i.ops <> n then fail "expected %d operands, got %d" n (Array.length i.ops)
  in
  match i.op with
  | Binop b ->
      expect_nops 2;
      if Array.length i.ops = 2 then begin
        if not (Ty.equal (op_ty 0) i.ty && Ty.equal (op_ty 1) i.ty) then
          fail "binop operand/result type mismatch";
        if Ty.is_ptr i.ty then fail "binop on pointers";
        if b = Div && Ty.scalar_is_int (Ty.elem i.ty) then fail "integer division"
      end
  | Alt_binop kinds ->
      expect_nops 2;
      if not (Ty.is_vector i.ty) then fail "alt_binop must have a vector type";
      if Array.length kinds <> Ty.lanes i.ty then fail "alt_binop lane-opcode count mismatch";
      if Array.length i.ops = 2 && not (Ty.equal (op_ty 0) i.ty && Ty.equal (op_ty 1) i.ty)
      then fail "alt_binop operand type mismatch"
  | Load ->
      expect_nops 1;
      if Array.length i.ops = 1 then (
        match op_ty 0 with
        | Ty.Ptr s ->
            if not (Ty.scalar_equal (Ty.elem i.ty) s) then fail "load element type mismatch"
        | _ -> fail "load address is not a pointer")
  | Store ->
      expect_nops 2;
      if Array.length i.ops = 2 then (
        match op_ty 1 with
        | Ty.Ptr s ->
            if not (Ty.scalar_equal (Ty.elem (op_ty 0)) s) then
              fail "store element type mismatch"
        | _ -> fail "store address is not a pointer")
  | Gep ->
      expect_nops 2;
      if Array.length i.ops = 2 then begin
        if not (Ty.is_ptr (op_ty 0)) then fail "gep base is not a pointer";
        if not (Ty.is_int (op_ty 1)) then fail "gep index is not an integer";
        if not (Ty.equal i.ty (op_ty 0)) then fail "gep result type mismatch"
      end
  | Insert ->
      expect_nops 3;
      if Array.length i.ops = 3 then begin
        if not (Ty.is_vector i.ty && Ty.equal i.ty (op_ty 0)) then
          fail "insert vector type mismatch";
        (match Value.as_const_int i.ops.(2) with
        | Some l when l >= 0 && l < Ty.lanes i.ty -> ()
        | Some l -> fail "insert lane %d out of range" l
        | None -> fail "insert lane must be a constant integer");
        if not (Ty.scalar_equal (Ty.elem i.ty) (Ty.elem (op_ty 1))) then
          fail "insert scalar type mismatch"
      end
  | Extract ->
      expect_nops 2;
      if Array.length i.ops = 2 then begin
        if not (Ty.is_vector (op_ty 0)) then fail "extract source is not a vector";
        match Value.as_const_int i.ops.(1) with
        | Some l when l >= 0 && l < Ty.lanes (op_ty 0) -> ()
        | Some l -> fail "extract lane %d out of range" l
        | None -> fail "extract lane must be a constant integer"
      end
  | Shuffle mask ->
      expect_nops 2;
      if Array.length i.ops = 2 then begin
        if not (Ty.is_vector (op_ty 0) && Ty.equal (op_ty 0) (op_ty 1)) then
          fail "shuffle operands must be vectors of the same type"
        else begin
          let total = 2 * Ty.lanes (op_ty 0) in
          Array.iter
            (fun m -> if m < 0 || m >= total then fail "shuffle mask index %d out of range" m)
            mask;
          if Ty.lanes i.ty <> Array.length mask then fail "shuffle result lane count mismatch"
        end
      end
  | Icmp _ ->
      expect_nops 2;
      if Array.length i.ops = 2 then begin
        if
          not
            (Ty.scalar_is_int (Ty.elem (op_ty 0))
            && (not (Ty.is_ptr (op_ty 0)))
            && Ty.equal (op_ty 0) (op_ty 1))
        then fail "icmp operands must be matching integers";
        if Ty.lanes i.ty <> Ty.lanes (op_ty 0) || not (Ty.scalar_is_int (Ty.elem i.ty)) then
          fail "icmp result type mismatch"
      end
  | Fcmp _ ->
      expect_nops 2;
      if Array.length i.ops = 2 then begin
        if not (Ty.scalar_is_float (Ty.elem (op_ty 0)) && Ty.equal (op_ty 0) (op_ty 1)) then
          fail "fcmp operands must be matching floats";
        if Ty.lanes i.ty <> Ty.lanes (op_ty 0) || not (Ty.scalar_is_int (Ty.elem i.ty)) then
          fail "fcmp result type mismatch"
      end
  | Select ->
      expect_nops 3;
      if Array.length i.ops = 3 then begin
        if not (Ty.scalar_is_int (Ty.elem (op_ty 0)) && not (Ty.is_ptr (op_ty 0))) then
          fail "select condition must be integers";
        if Ty.is_vector (op_ty 0) && Ty.lanes (op_ty 0) <> Ty.lanes (op_ty 1) then
          fail "select condition lane count mismatch";
        if not (Ty.equal (op_ty 1) (op_ty 2) && Ty.equal i.ty (op_ty 1)) then
          fail "select arm type mismatch"
      end
  | Phi preds ->
      if Array.length preds = 0 then fail "phi has no predecessors";
      if Array.length i.ops <> Array.length preds then
        fail "phi has %d operands for %d predecessors" (Array.length i.ops)
          (Array.length preds);
      let seen_pred = Hashtbl.create 4 in
      Array.iter
        (fun p ->
          if Hashtbl.mem seen_pred p then fail "phi lists predecessor block %d twice" p;
          Hashtbl.replace seen_pred p ())
        preds;
      if Ty.is_vector i.ty then fail "vector phi";
      Array.iteri
        (fun k _ ->
          if not (Ty.equal (op_ty k) i.ty) then
            fail "phi operand %d type mismatch" k)
        i.ops

(* Like {!instr_where} for terminators: the error locates the bad
   branch by its full rendered form ("latch: br %header"), not just
   the block name. *)
let term_where (b : block) =
  try Fmt.str "%s: %a" b.bname Printer.pp_terminator b.term
  with _ -> b.bname

let verify (f : func) : error list =
  let errors = ref [] in
  let fail where fmt =
    Printf.ksprintf (fun what -> errors := { where; what } :: !errors) fmt
  in
  if f.blocks = [] then fail f.fname "function has no blocks";
  (* Blocks reachable from the entry: an [Unterminated] block is only
     an error when control can actually fall off its end; transforms
     may leave disconnected blocks behind before cleanup, and those
     never execute. *)
  let reachable = Hashtbl.create 7 in
  (match f.blocks with
  | [] -> ()
  | entry :: _ ->
      let rec visit (b : block) =
        if not (Hashtbl.mem reachable b.bid) then begin
          Hashtbl.replace reachable b.bid ();
          List.iter visit (Block.successors b)
        end
      in
      visit entry);
  (* Unique instruction ids and consistent block back-pointers. *)
  let seen = Hashtbl.create 64 in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          if Hashtbl.mem seen i.iid then fail (instr_where i) "duplicate instruction id";
          Hashtbl.replace seen i.iid ();
          (match i.iblock with
          | Some b' when Block.equal b b' -> ()
          | _ -> fail (instr_where i) "instruction block back-pointer is stale");
          check_instr errors i)
        b.instrs;
      (match b.term with
      | Unterminated ->
          if Hashtbl.mem reachable b.bid then
            fail (term_where b) "block is reachable from entry but unterminated"
      | Ret -> ()
      | Br t ->
          if not (List.exists (Block.equal t) f.blocks) then
            fail (term_where b) "branch target %%%s not in function" t.bname
      | Cond_br (c, t1, t2) ->
          if not (Ty.is_int (Value.ty c)) then
            fail (term_where b) "branch condition is not an integer";
          List.iter
            (fun (t : block) ->
              if not (List.exists (Block.equal t) f.blocks) then
                fail (term_where b) "branch target %%%s not in function" t.bname)
            [ t1; t2 ]))
    f.blocks;
  (* Phi placement and incoming-edge structure.  The payload must name
     exactly the block's predecessors; phis sit at the block head; the
     entry block has no predecessors, so no phis; and a phi never reads
     another phi of its own block (the engines evaluate a block's phis
     sequentially, not as a parallel copy). *)
  if f.blocks <> [] then begin
    let preds = Dominance.predecessors f in
    List.iter
      (fun b ->
        let pred_bids =
          match Hashtbl.find_opt preds b.bid with
          | Some ps -> List.map (fun (p : block) -> p.bid) ps
          | None -> []
        in
        let entry = Block.equal b (Func.entry f) in
        let non_phi_seen = ref false in
        List.iter
          (fun (i : instr) ->
            match i.op with
            | Phi payload ->
                if entry then fail (instr_where i) "phi in entry block";
                if !non_phi_seen then
                  fail (instr_where i) "phi is not at the head of its block";
                let names = Array.to_list payload in
                if
                  List.length names <> List.length pred_bids
                  || not (List.for_all (fun p -> List.mem p pred_bids) names)
                then
                  fail (instr_where i)
                    "phi predecessors [%s] do not match the block's actual \
                     predecessors [%s]"
                    (String.concat "," (List.map string_of_int names))
                    (String.concat "," (List.map string_of_int pred_bids));
                Array.iter
                  (fun o ->
                    match o with
                    | Instr d when Instr.is_phi d && d.iblock <> None
                                   && Block.equal (Option.get d.iblock) b ->
                        fail (instr_where i) "phi reads phi %%%s of the same block"
                          d.iname
                    | _ -> ())
                  i.ops
            | _ -> non_phi_seen := true)
          b.instrs)
      f.blocks
  end;
  (* Defs dominate uses.  Positions are precomputed so the check is
     O(uses), not O(uses × block length). *)
  if f.blocks <> [] then begin
    let dom = Dominance.compute f in
    let positions : (int, Defs.block * int) Hashtbl.t = Hashtbl.create 256 in
    List.iter
      (fun b ->
        List.iteri (fun k i -> Hashtbl.replace positions i.iid (b, k)) b.instrs)
      f.blocks;
    let def_dominates_use ~def ~user =
      match (Hashtbl.find_opt positions def.iid, Hashtbl.find_opt positions user.iid) with
      | Some (db, dk), Some (ub, uk) ->
          if Block.equal db ub then dk < uk else Dominance.dominates dom db ub
      | _ -> false
    in
    let blocks_by_id = Hashtbl.create 7 in
    List.iter (fun b -> Hashtbl.replace blocks_by_id b.bid b) f.blocks;
    Func.iter_instrs
      (fun user ->
        match user.op with
        | Phi payload ->
            (* A phi's operand is used on the incoming edge, so its
               definition must dominate the *end of the predecessor
               block*, not the phi itself (the back-edge value is
               defined after the header). *)
            Array.iteri
              (fun k o ->
                match o with
                | Instr def when k < Array.length payload -> (
                    match
                      (Hashtbl.find_opt blocks_by_id payload.(k),
                       Hashtbl.find_opt positions def.iid)
                    with
                    | Some pb, Some (db, _) ->
                        if not (Block.equal db pb || Dominance.dominates dom db pb) then
                          fail (instr_where user)
                            "incoming %%%s does not dominate the end of predecessor \
                             %%%s"
                            def.iname pb.bname
                    | _, None ->
                        (* A dangling incoming value: its definition was
                           deleted without rewriting this phi. *)
                        fail (instr_where user) "incoming %%%s is not in the function"
                          def.iname
                    | None, Some _ -> () (* bad payload: reported structurally *))
                | _ -> ())
              user.ops
        | _ ->
            Array.iter
              (fun o ->
                match o with
                | Instr def ->
                    if not (def_dominates_use ~def ~user) then
                      fail (instr_where user) "operand %%%s does not dominate this use"
                        def.iname
                | Const _ | Undef _ | Arg _ -> ())
              user.ops)
      f
  end;
  List.rev !errors

exception Invalid_ir of string

(* [check f] is {!verify} folded into a result: [Ok ()] when
   well-formed, [Error report] otherwise.  The fuzzing oracle and
   generator assert on this form. *)
let check (f : func) : (unit, string) result =
  match verify f with
  | [] -> Ok ()
  | errors ->
      let report =
        errors |> List.map (Fmt.str "%a" pp_error) |> String.concat "; "
      in
      Error (Printf.sprintf "in @%s: %s" f.fname report)

(* [verify_exn f] raises {!Invalid_ir} with a readable report if [f]
   is malformed. *)
let verify_exn (f : func) =
  match check f with Ok () -> () | Error report -> raise (Invalid_ir report)
