(* Operations over IR functions. *)

open Defs

type t = func

let create ~name ~args =
  let fargs =
    Array.of_list (List.mapi (fun i (arg_name, arg_ty) -> { arg_name; arg_ty; arg_pos = i }) args)
  in
  { fname = name; fargs; blocks = []; next_iid = 0; next_bid = 0 }

let name (f : t) = f.fname
let args (f : t) = f.fargs
let blocks (f : t) = f.blocks

let arg (f : t) n = f.fargs.(n)

let find_arg (f : t) aname =
  Array.to_list f.fargs |> List.find_opt (fun a -> String.equal a.arg_name aname)

let entry (f : t) =
  match f.blocks with
  | [] -> invalid_arg "Func.entry: function has no blocks"
  | b :: _ -> b

let new_block bid bname =
  let b =
    {
      bid;
      bname;
      bhead = None;
      btail = None;
      blen = 0;
      bsome = None;
      bstamp = 0;
      term = Unterminated;
    }
  in
  b.bsome <- Some b;
  b

let fresh_block (f : t) bname =
  let b = new_block f.next_bid bname in
  f.next_bid <- f.next_bid + 1;
  b

let add_block (f : t) bname =
  let b = fresh_block f bname in
  f.blocks <- f.blocks @ [ b ];
  b

let shell ~iid ~iname op ty ops =
  {
    iid;
    op;
    ty;
    ops;
    iname;
    iblock = None;
    iuses = Use.unused;
    islots = [||];
    iprev = None;
    inext = None;
    iorder = 0;
  }

let fresh_instr (f : t) ?name op ty ops =
  let iid = f.next_iid in
  f.next_iid <- f.next_iid + 1;
  let iname = match name with Some n -> n | None -> string_of_int iid in
  let i = shell ~iid ~iname op ty ops in
  Use.register_all i;
  i

let iter_instrs f (fn : t) = List.iter (fun b -> Block.iter f b) fn.blocks

let fold_instrs f acc (fn : t) =
  List.fold_left (fun acc b -> Block.fold f acc b) acc fn.blocks

let num_instrs (fn : t) = List.fold_left (fun n b -> n + Block.length b) 0 fn.blocks

(* All uses of [v] among instruction operands, as (user, operand index)
   pairs, found by scanning the whole function in block order.  Kept
   as the reference implementation (and the only one that can answer
   for constants and arguments); instruction results are served from
   the persistent use lists by {!uses_of} below. *)
let scan_uses_of (fn : t) (v : value) =
  let acc = ref [] in
  iter_instrs
    (fun i ->
      Array.iteri (fun n o -> if Value.equal o v then acc := (i, n) :: !acc) i.ops)
    fn;
  List.rev !acc

(* Only users attached to a block count: an instruction detached for
   code motion (or discarded) is invisible, exactly as it is to a
   scan over the function's blocks. *)
let attached ((u : instr), _) = u.iblock <> None

let uses_of (fn : t) (v : value) =
  match v with
  | Instr d ->
      List.rev (Use.fold (fun acc u n -> if attached (u, n) then (u, n) :: acc else acc) [] d)
  | Const _ | Undef _ | Arg _ -> scan_uses_of fn v

let has_uses (fn : t) (v : value) =
  match v with
  | Instr d -> Use.exists (fun u n -> attached (u, n)) d
  | Const _ | Undef _ | Arg _ -> scan_uses_of fn v <> []

(* Replace all uses of [old_v] by [new_v] across the function
   (including terminator conditions).  O(uses) when [old_v] is an
   instruction result: the use list is walked directly instead of
   scanning the function. *)
let replace_all_uses (fn : t) ~old_v ~new_v =
  (match old_v with
  | Instr d ->
      (* [Instr.set_operand] moves each entry to [new_v]'s chain as
         we go; [Use.iter] has read the next entry already.  Detached
         users are left alone, as a scan would. *)
      Use.iter (fun (u : instr) n -> if u.iblock <> None then Instr.set_operand u n new_v) d
  | Const _ | Undef _ | Arg _ ->
      iter_instrs
        (fun i ->
          Array.iteri
            (fun n o -> if Value.equal o old_v then Instr.set_operand i n new_v)
            i.ops)
        fn);
  List.iter
    (fun b ->
      match b.term with
      | Cond_br (c, b1, b2) when Value.equal c old_v -> b.term <- Cond_br (new_v, b1, b2)
      | Ret | Br _ | Cond_br _ | Unterminated -> ())
    fn.blocks

let erase_instr (fn : t) (i : instr) =
  if has_uses fn (Instr i) then
    invalid_arg (Printf.sprintf "Func.erase_instr: %%%s still has uses" i.iname);
  match i.iblock with
  | None -> invalid_arg "Func.erase_instr: instruction not in a block"
  | Some b ->
      Block.remove b i;
      Use.unregister_all i

(* Check the def-use invariant over the whole function: every operand
   slot holding an instruction result has exactly one mirroring use
   entry, and every use entry points back at a slot holding the
   definition.  O(n × uses); for tests and debugging. *)
let check_use_lists (fn : t) =
  let err = ref None in
  let fail fmt = Printf.ksprintf (fun m -> if !err = None then err := Some m) fmt in
  iter_instrs
    (fun i ->
      Array.iteri
        (fun n o ->
          match o with
          | Instr d ->
              let entries = Use.fold (fun c u m -> if u == i && m = n then c + 1 else c) 0 d in
              if entries <> 1 then
                fail "%%%s operand %d: %d use entries on %%%s (want 1)" i.iname n
                  entries d.iname
          | Const _ | Undef _ | Arg _ -> ())
        i.ops;
      Use.iter
        (fun (u : instr) n ->
          if n < 0 || n >= Array.length u.ops then
            fail "use list of %%%s: slot %d out of range on %%%s" i.iname n u.iname
          else
            match u.ops.(n) with
            | Instr d when d == i -> ()
            | _ -> fail "use list of %%%s: %%%s.ops.(%d) holds another value" i.iname u.iname n)
        i)
    fn;
  match !err with None -> Ok () | Some m -> Error m

(* Deep copy.  Instruction and block identities are preserved (same
   ids, fresh records), so analyses keyed by id can be replayed on the
   clone; this is what lets the vectorizer try a transformation and
   throw it away if the cost model rejects it.  Instructions map
   through an array indexed by id, sized from [next_iid]. *)
let clone (fn : t) : t =
  let fn' =
    {
      fname = fn.fname;
      fargs = fn.fargs;
      blocks = [];
      next_iid = fn.next_iid;
      next_bid = fn.next_bid;
    }
  in
  let block_map = Hashtbl.create 7 in
  let absent = shell ~iid:(-1) ~iname:"" Load Ty.i32 [||] in
  let instr_map = Array.make fn.next_iid absent in
  List.iter
    (fun b ->
      let b' = new_block b.bid b.bname in
      Hashtbl.add block_map b.bid b')
    fn.blocks;
  (* Pass 1: clone every instruction shell with its operands left
     empty.  Phis may reference instructions defined in later blocks
     (the loop latch's increment), so operand resolution must wait
     until every clone exists. *)
  List.iter
    (fun b ->
      let b' = Hashtbl.find block_map b.bid in
      Block.iter
        (fun i ->
          let i' = shell ~iid:i.iid ~iname:i.iname i.op i.ty [||] in
          instr_map.(i.iid) <- i';
          Block.append b' i')
        b)
    fn.blocks;
  let map_value v =
    match v with
    | Instr i ->
        let i' = instr_map.(i.iid) in
        if i' == absent then
          invalid_arg (Printf.sprintf "Func.clone: operand %%%s is in no block" i.iname);
        Instr i'
    | Const _ | Undef _ | Arg _ -> v
  in
  (* Pass 2: fill operands and terminators through the maps. *)
  List.iter
    (fun b ->
      let b' = Hashtbl.find block_map b.bid in
      Block.iter
        (fun (i : instr) ->
          let i' = instr_map.(i.iid) in
          i'.ops <- Array.map map_value i.ops;
          Use.register_all i')
        b;
      b'.term <-
        (match b.term with
        | Ret -> Ret
        | Unterminated -> Unterminated
        | Br t -> Br (Hashtbl.find block_map t.bid)
        | Cond_br (c, t1, t2) ->
            Cond_br (map_value c, Hashtbl.find block_map t1.bid, Hashtbl.find block_map t2.bid)))
    fn.blocks;
  fn'.blocks <- List.map (fun b -> Hashtbl.find block_map b.bid) fn.blocks;
  fn'
