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

(* Lookups shared by the whole-function and the local check: blocks
   by id, membership of a block in [f], and "does [def] dominate
   [user]" from order keys within a block and dominators across
   blocks. *)
type scope = {
  sfunc : func;
  by_bid : block Int_table.t;
  dom : Dominance.t Lazy.t;
  mutable last : block option;
      (* the block [in_func] last found in [f]: consecutive checks
         mostly ask about one block *)
}

(* O(blocks of [f]), not O([next_bid]): a pass that deleted many
   blocks leaves [next_bid] far above the live count. *)
let scope (f : func) =
  let by_bid = Int_table.create 16 in
  List.iter (fun b -> Int_table.replace by_bid b.bid b) f.blocks;
  { sfunc = f; by_bid; dom = lazy (Dominance.compute f); last = None }

let block_of_bid sc bid = Int_table.find_opt sc.by_bid bid

let in_func sc (b : block) =
  match sc.last with
  | Some l when l == b -> true
  | Some _ | None -> (
      match block_of_bid sc b.bid with
      | Some b' when b' == b ->
          sc.last <- b.bsome;
          true
      | Some _ | None -> false)

(* The block [i] is attached to, when that block belongs to [f]. *)
let home sc (i : instr) =
  match i.iblock with Some b when in_func sc b -> Some b | _ -> None

let def_dominates_use sc ~(def : instr) ~(user : instr) =
  match (home sc def, home sc user) with
  | Some db, Some ub ->
      if db == ub then Block.precedes def user else Dominance.dominates (Lazy.force sc.dom) db ub
  | _ -> false

(* A phi's operand [k] is used on the incoming edge, so its definition
   must dominate the *end of the predecessor block*, not the phi
   itself (the back-edge value is defined after the header). *)
let check_incoming sc add (user : instr) payload k (def : instr) =
  if k < Array.length payload then
    match (block_of_bid sc payload.(k), home sc def) with
    | Some pb, Some db ->
        if not (db == pb || Dominance.dominates (Lazy.force sc.dom) db pb) then
          add (instr_where user)
            (Printf.sprintf "incoming %%%s does not dominate the end of predecessor %%%s"
               def.iname pb.bname)
    | _, None ->
        (* A dangling incoming value: its definition was deleted
           without rewriting this phi. *)
        add (instr_where user) (Printf.sprintf "incoming %%%s is not in the function" def.iname)
    | None, Some _ -> () (* bad payload: reported structurally *)

(* Every operand of [user] dominates it. *)
let not_dominating add (def : instr) (user : instr) =
  add (instr_where user) (Printf.sprintf "operand %%%s does not dominate this use" def.iname)

let check_operands sc add (user : instr) =
  match user.op with
  | Phi payload ->
      Array.iteri
        (fun k o -> match o with Instr def -> check_incoming sc add user payload k def | _ -> ())
        user.ops
  | _ ->
      Array.iter
        (fun o ->
          match o with
          | Instr def -> if not (def_dominates_use sc ~def ~user) then not_dominating add def user
          | Const _ | Undef _ | Arg _ -> ())
        user.ops

let verify (f : func) : error list =
  let errors = ref [] in
  let fail where fmt =
    Printf.ksprintf (fun what -> errors := { where; what } :: !errors) fmt
  in
  if f.blocks = [] then fail f.fname "function has no blocks";
  let sc = scope f in
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
  (* Unique instruction ids (a bitmap over [next_iid]), consistent
     block back-pointers and links, and order keys increasing along
     each block. *)
  let seen = Bytes.make (max f.next_iid 0) '\000' in
  List.iter
    (fun b ->
      let count = ref 0 in
      let prev = ref None in
      Block.iter
        (fun i ->
          incr count;
          if i.iid < 0 || i.iid >= f.next_iid then
            fail (instr_where i) "instruction id %d out of range" i.iid
          else if Bytes.get seen i.iid <> '\000' then fail (instr_where i) "duplicate instruction id"
          else Bytes.set seen i.iid '\001';
          (match i.iblock with
          | Some b' when Block.equal b b' -> ()
          | _ -> fail (instr_where i) "instruction block back-pointer is stale");
          (match (!prev, i.iprev) with
          | None, None -> ()
          | Some p, Some p' when p == p' ->
              if p.iorder >= i.iorder then fail (instr_where i) "order key does not increase"
          | _ -> fail (instr_where i) "instruction list link is broken");
          prev := Some i;
          check_instr errors i)
        b;
      if !count <> Block.length b then
        fail b.bname "block holds %d instructions but counts %d" !count (Block.length b);
      (match b.term with
      | Unterminated ->
          if Hashtbl.mem reachable b.bid then
            fail (term_where b) "block is reachable from entry but unterminated"
      | Ret -> ()
      | Br t ->
          if not (in_func sc t) then
            fail (term_where b) "branch target %%%s not in function" t.bname
      | Cond_br (c, t1, t2) ->
          if not (Ty.is_int (Value.ty c)) then
            fail (term_where b) "branch condition is not an integer";
          List.iter
            (fun (t : block) ->
              if not (in_func sc t) then
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
        Block.iter
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
          b)
      f.blocks
  end;
  (* Defs dominate uses: O(1) per use, from order keys within a block. *)
  let add where what = errors := { where; what } :: !errors in
  if f.blocks <> [] then Func.iter_instrs (check_operands sc add) f;
  List.rev !errors

(* [verify_local f ~touched ~erased] repeats the checks of {!verify}
   that a local rewrite can break, for the instructions it emitted or
   moved ([touched]) and those it erased, in O(their operands and
   uses): each touched instruction is well formed, sits between keys
   that increase, keeps phis at the block head, and dominates every
   user as every operand dominates it; an erased instruction is
   detached and used by nothing attached.  Errors name the offending
   instruction as {!verify} does. *)
let verify_local (sc : scope) ~(touched : instr list) ~(erased : instr list) : error list =
  let errors = ref [] in
  let fail where fmt =
    Printf.ksprintf (fun what -> errors := { where; what } :: !errors) fmt
  in
  let add where what = errors := { where; what } :: !errors in
  let check_user (def : instr) (user : instr) k =
    if user.iblock <> None then
      match user.op with
      | Phi payload -> check_incoming sc add user payload k def
      | _ -> if not (def_dominates_use sc ~def ~user) then not_dominating add def user
  in
  List.iter
    (fun (i : instr) ->
      match home sc i with
      | None -> fail (instr_where i) "instruction block back-pointer is stale"
      | Some _ ->
          check_instr errors i;
          (match i.iprev with
          | Some p when p.iorder >= i.iorder -> fail (instr_where i) "order key does not increase"
          | Some p when Instr.is_phi i && not (Instr.is_phi p) ->
              fail (instr_where i) "phi is not at the head of its block"
          | _ -> ());
          (match i.inext with
          | Some n when Instr.is_phi n && not (Instr.is_phi i) ->
              fail (instr_where n) "phi is not at the head of its block"
          | _ -> ());
          check_operands sc add i;
          Use.iter (check_user i) i)
    touched;
  List.iter
    (fun (i : instr) ->
      if i.iblock <> None then fail (instr_where i) "erased instruction is still in a block";
      Use.iter (check_user i) i)
    erased;
  (* A def and its user can both be touched: report each problem once. *)
  let seen = Hashtbl.create 8 in
  List.filter
    (fun e ->
      let dup = Hashtbl.mem seen e in
      Hashtbl.replace seen e ();
      not dup)
    (List.rev !errors)

exception Invalid_ir of string

let report (f : func) errors =
  let lines = errors |> List.map (Fmt.str "%a" pp_error) |> String.concat "; " in
  Printf.sprintf "in @%s: %s" f.fname lines

(* [check f] is {!verify} folded into a result: [Ok ()] when
   well-formed, [Error report] otherwise.  The fuzzing oracle and
   generator assert on this form. *)
let check (f : func) : (unit, string) result =
  match verify f with [] -> Ok () | errors -> Error (report f errors)

(* [verify_exn f] raises {!Invalid_ir} with a readable report if [f]
   is malformed. *)
let verify_exn (f : func) =
  match check f with Ok () -> () | Error report -> raise (Invalid_ir report)

let verify_local_exn (sc : scope) ~touched ~erased =
  match verify_local sc ~touched ~erased with
  | [] -> ()
  | errors -> raise (Invalid_ir (report sc.sfunc errors))
