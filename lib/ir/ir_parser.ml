(* Parser for the textual IR format emitted by {!Printer}, making the
   format round-trippable:

     func @name(f64* %A, i64 %i) {
     entry:
       %0 = gep f64* %B, %i
       %1 = load f64 %0
       %7 = fsub f64 %3, %6
       %v9 = shuffle.1.0 <2 x f64> %v8, undef
       store %7, %5
       ret
     }

   Instruction names must be unique within a function (the printer and
   all code generators maintain this).  A fresh instruction is named by
   its id ("17", or "v17" from codegen), so the parsed function's ids
   continue past every such name it read.  Constants are re-typed from
   context: each opcode dictates its operands' expected types. *)

open Defs

exception Parse_error of { line : int; message : string }

let error ~line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

(* --- Line-level tokenization -------------------------------------------- *)

let strip s =
  let is_ws c = c = ' ' || c = '\t' || c = '\r' in
  let n = String.length s in
  let b = ref 0 and e = ref n in
  while !b < n && is_ws s.[!b] do
    incr b
  done;
  while !e > !b && is_ws s.[!e - 1] do
    decr e
  done;
  String.sub s !b (!e - !b)

let split_on_comma s = String.split_on_char ',' s |> List.map strip |> List.filter (( <> ) "")

(* --- Types --------------------------------------------------------------- *)

let parse_scalar ~line s : Ty.scalar =
  match s with
  | "i32" -> Ty.I32
  | "i64" -> Ty.I64
  | "f32" -> Ty.F32
  | "f64" -> Ty.F64
  | _ -> error ~line "unknown scalar type %S" s

let parse_ty ~line (s : string) : Ty.t =
  let s = strip s in
  if String.length s > 0 && s.[String.length s - 1] = '*' then
    Ty.Ptr (parse_scalar ~line (String.sub s 0 (String.length s - 1)))
  else if String.length s > 0 && s.[0] = '<' then begin
    (* <N x elem> *)
    match String.split_on_char ' ' (String.sub s 1 (String.length s - 2)) with
    | [ n; "x"; elem ] -> (
        match int_of_string_opt n with
        | Some lanes when lanes >= 2 -> Ty.vector ~lanes (parse_scalar ~line elem)
        | _ -> error ~line "bad vector type %S" s)
    | _ -> error ~line "bad vector type %S" s
  end
  else Ty.Scalar (parse_scalar ~line s)

(* The printer renders vector types with spaces ("<2 x f64>"), so the
   type token of an instruction line may itself contain spaces; cut it
   off the front of the operand text. *)
let take_ty ~line (s : string) : Ty.t * string =
  let s = strip s in
  if String.length s > 0 && s.[0] = '<' then (
    match String.index_opt s '>' with
    | Some k -> (parse_ty ~line (String.sub s 0 (k + 1)), strip (String.sub s (k + 1) (String.length s - k - 1)))
    | None -> error ~line "unterminated vector type in %S" s)
  else
    match String.index_opt s ' ' with
    | Some k ->
        (parse_ty ~line (String.sub s 0 k), strip (String.sub s k (String.length s - k)))
    | None -> (parse_ty ~line s, "")

(* --- Operands ------------------------------------------------------------- *)

type env = {
  values : (string, value) Hashtbl.t; (* "%name" -> value *)
  blocks : (string, block) Hashtbl.t;
  mutable pending : (int * string) list;
      (* phi operands referencing values not yet defined (the back-edge
         increment is printed after the header): (operand index, token),
         collected per instruction line and patched once the whole body
         has been parsed. *)
}

(* [parse_operand ~expect] parses one operand token.  Constants adopt
   [expect]; references resolve through the environment. *)
let parse_operand ~line (env : env) ~(expect : Ty.t option) (tok : string) : value =
  let tok = strip tok in
  if tok = "" then error ~line "empty operand"
  else if tok = "undef" then
    match expect with
    | Some ty -> Undef ty
    | None -> error ~line "cannot type 'undef' here"
  else if tok.[0] = '%' then begin
    let name = String.sub tok 1 (String.length tok - 1) in
    match Hashtbl.find_opt env.values ("%" ^ name) with
    | Some v -> v
    | None -> error ~line "unknown value %s" tok
  end
  else
    (* A literal; type it from context. *)
    let expect = match expect with Some t -> t | None -> Ty.i64 in
    if Ty.is_int expect then
      match Int64.of_string_opt tok with
      | Some i -> Const { ty = expect; lit = Lit.Int i }
      | None -> error ~line "bad integer literal %S" tok
    else if Ty.is_float expect then
      match float_of_string_opt tok with
      | Some f -> Const { ty = expect; lit = Lit.Float f }
      | None -> error ~line "bad float literal %S" tok
    else error ~line "literal %S used where a %s is expected" tok (Ty.to_string expect)

(* The integer behind a constant-int operand (lane indexes). *)
let lane_of ~line v =
  match Value.as_const_int v with
  | Some l -> l
  | None -> error ~line "expected a constant lane index"

(* --- Mnemonics ------------------------------------------------------------- *)

let binop_of_mnemonic m =
  match m with
  | "add" | "fadd" -> Some Add
  | "sub" | "fsub" -> Some Sub
  | "mul" | "fmul" -> Some Mul
  | "div" | "fdiv" -> Some Div
  | _ -> None

let cmp_of_string ~line s =
  match s with
  | "eq" -> Eq
  | "ne" -> Ne
  | "lt" -> Lt
  | "le" -> Le
  | "gt" -> Gt
  | "ge" -> Ge
  | _ -> error ~line "unknown comparison %S" s

let dotted m =
  match String.index_opt m '.' with
  | Some k -> (String.sub m 0 k, String.sub m (k + 1) (String.length m - k - 1))
  | None -> (m, "")

(* --- Instruction lines ------------------------------------------------------ *)

(* Parse the right-hand side "MNEMONIC TY operands"; returns opcode,
   type, operand values. *)
let parse_rhs ~line (env : env) (rhs : string) : opcode * Ty.t * value array =
  let rhs = strip rhs in
  let mnemonic, rest =
    match String.index_opt rhs ' ' with
    | Some k -> (String.sub rhs 0 k, strip (String.sub rhs k (String.length rhs - k)))
    | None -> error ~line "missing type in %S" rhs
  in
  let ty, operand_text = take_ty ~line rest in
  let toks = split_on_comma operand_text in
  let operand ?expect k =
    match List.nth_opt toks k with
    | Some tok -> parse_operand ~line env ~expect tok
    | None -> error ~line "missing operand %d" k
  in
  let expect_nops n =
    if List.length toks <> n then
      error ~line "expected %d operands, found %d" n (List.length toks)
  in
  let head, tail = dotted mnemonic in
  match head with
  | "load" | "vload" ->
      expect_nops 1;
      (Load, ty, [| operand 0 |])
  | "gep" ->
      expect_nops 2;
      (Gep, ty, [| operand 0; operand ~expect:Ty.i64 1 |])
  | "insert" ->
      expect_nops 3;
      let vec = operand ~expect:ty 0 in
      let scalar = operand ~expect:(Ty.Scalar (Ty.elem ty)) 1 in
      let lane = operand ~expect:Ty.i64 2 in
      (Insert, ty, [| vec; scalar; lane |])
  | "extract" ->
      expect_nops 2;
      let vec = operand 0 in
      let lane = operand ~expect:Ty.i64 1 in
      ignore (lane_of ~line lane);
      (Extract, ty, [| vec; lane |])
  | "shuffle" ->
      expect_nops 2;
      let mask =
        String.split_on_char '.' tail
        |> List.filter (( <> ) "")
        |> List.map (fun s ->
               match int_of_string_opt s with
               | Some k -> k
               | None -> error ~line "bad shuffle mask element %S" s)
        |> Array.of_list
      in
      if Array.length mask = 0 then error ~line "shuffle without a mask";
      let v0 = operand 0 in
      let vty =
        match v0 with
        | Undef _ -> error ~line "shuffle's first operand cannot be undef"
        | v -> Value.ty v
      in
      (Shuffle mask, ty, [| v0; operand ~expect:vty 1 |])
  | "icmp" ->
      expect_nops 2;
      let a = operand ~expect:Ty.i64 0 in
      (Icmp (cmp_of_string ~line tail), ty, [| a; operand ~expect:(Value.ty a) 1 |])
  | "fcmp" ->
      expect_nops 2;
      let a = operand ~expect:Ty.f64 0 in
      (Fcmp (cmp_of_string ~line tail), ty, [| a; operand ~expect:(Value.ty a) 1 |])
  | "select" ->
      expect_nops 3;
      (Select, ty, [| operand ~expect:Ty.i64 0; operand ~expect:ty 1; operand ~expect:ty 2 |])
  | "phi" ->
      let preds =
        String.split_on_char '.' tail
        |> List.filter (( <> ) "")
        |> List.map (fun nm ->
               match Hashtbl.find_opt env.blocks nm with
               | Some b -> b.bid
               | None -> error ~line "phi names unknown predecessor block %S" nm)
        |> Array.of_list
      in
      if Array.length preds = 0 then error ~line "phi without predecessors";
      expect_nops (Array.length preds);
      let ops =
        Array.init (Array.length preds) (fun k ->
            let tok = List.nth toks k in
            if String.length tok > 0 && tok.[0] = '%'
               && not (Hashtbl.mem env.values tok)
            then begin
              (* Forward reference (loop-carried value): record a fixup
                 and hold the slot with a typed placeholder. *)
              env.pending <- (k, tok) :: env.pending;
              Undef ty
            end
            else parse_operand ~line env ~expect:(Some ty) tok)
      in
      (Phi preds, ty, ops)
  | "alt" ->
      expect_nops 2;
      let kinds =
        String.split_on_char '.' tail
        |> List.filter (( <> ) "")
        |> List.map (fun s ->
               match binop_of_mnemonic s with
               | Some b -> b
               | None -> error ~line "bad alt lane opcode %S" s)
        |> Array.of_list
      in
      (Alt_binop kinds, ty, [| operand ~expect:ty 0; operand ~expect:ty 1 |])
  | _ -> (
      match binop_of_mnemonic mnemonic with
      | Some b -> (Binop b, ty, [| operand ~expect:ty 0; operand ~expect:ty 1 |])
      | None -> error ~line "unknown mnemonic %S" mnemonic)

(* --- Whole functions --------------------------------------------------------- *)

let parse_header ~line (s : string) : string * (string * Ty.t) list =
  (* func @name(params) { *)
  let s = strip s in
  let fail () = error ~line "malformed function header %S" s in
  if not (String.length s > 6 && String.sub s 0 6 = "func @") then fail ();
  let open_paren = try String.index s '(' with Not_found -> fail () in
  let close_paren = try String.rindex s ')' with Not_found -> fail () in
  let name = String.sub s 6 (open_paren - 6) in
  let params_text = String.sub s (open_paren + 1) (close_paren - open_paren - 1) in
  let params =
    split_on_comma params_text
    |> List.map (fun p ->
           match String.rindex_opt p ' ' with
           | Some k ->
               let ty = parse_ty ~line (String.sub p 0 k) in
               let nm = strip (String.sub p k (String.length p - k)) in
               if String.length nm < 2 || nm.[0] <> '%' then fail ();
               (String.sub nm 1 (String.length nm - 1), ty)
           | None -> fail ())
  in
  (name, params)

(* Names "%N" and "%vN" are the ones a fresh instruction can take.
   Ids size per-function arrays, so N is bounded. *)
let max_numbered_name = 1 lsl 24

let numbered ~line nm =
  let n = String.length nm in
  let start = if n > 2 && nm.[1] = 'v' then 2 else 1 in
  let digits = String.sub nm start (n - start) in
  if digits = "" || not (String.for_all (fun c -> c >= '0' && c <= '9') digits) then None
  else
    match int_of_string_opt digits with
    | Some k when k < max_numbered_name -> Some k
    | _ -> error ~line "%s: numbered name over the limit of %d" nm max_numbered_name

let parse_func (src : string) : func =
  let lines = String.split_on_char '\n' src |> Array.of_list in
  let n = Array.length lines in
  let cur = ref 0 in
  let skip_blank () =
    while !cur < n && strip lines.(!cur) = "" do
      incr cur
    done
  in
  skip_blank ();
  if !cur >= n then error ~line:1 "empty input";
  let header_line = !cur + 1 in
  let fname, params = parse_header ~line:header_line lines.(!cur) in
  incr cur;
  let f = Func.create ~name:fname ~args:params in
  let env = { values = Hashtbl.create 64; blocks = Hashtbl.create 8; pending = [] } in
  let fixups : (instr * int * string * int) list ref = ref [] in
  (* One past the largest numbered name read. *)
  let past_names = ref 0 in
  let define ~line nm v =
    Option.iter (fun k -> past_names := max !past_names (k + 1)) (numbered ~line nm);
    Hashtbl.replace env.values nm v
  in
  Array.iter (fun a -> define ~line:header_line ("%" ^ a.arg_name) (Arg a)) (Func.args f);
  (* First pass over the body: create the blocks so branches can refer
     forward. *)
  let body_start = !cur in
  let k = ref !cur in
  while !k < n && strip lines.(!k) <> "}" do
    let l = strip lines.(!k) in
    if String.length l > 1 && l.[String.length l - 1] = ':' then begin
      let bname = String.sub l 0 (String.length l - 1) in
      Hashtbl.replace env.blocks bname (Func.add_block f bname)
    end;
    incr k
  done;
  if !k >= n then error ~line:n "missing closing '}'";
  (* Second pass: instructions and terminators. *)
  let current = ref None in
  let block_named ~line nm =
    let nm = if String.length nm > 0 && nm.[0] = '%' then String.sub nm 1 (String.length nm - 1) else nm in
    match Hashtbl.find_opt env.blocks nm with
    | Some b -> b
    | None -> error ~line "unknown block %S" nm
  in
  cur := body_start;
  while !cur < !k do
    let line = !cur + 1 in
    let l = strip lines.(!cur) in
    (if l = "" then ()
     else if l.[String.length l - 1] = ':' then
       current := Some (block_named ~line (String.sub l 0 (String.length l - 1)))
     else
       let blk =
         match !current with
         | Some b -> b
         | None -> error ~line "instruction before any block label"
       in
       if l = "ret" then Block.set_terminator blk Ret
       else if String.length l > 3 && String.sub l 0 3 = "br " then begin
         let rest = strip (String.sub l 3 (String.length l - 3)) in
         match split_on_comma rest with
         | [ target ] -> Block.set_terminator blk (Br (block_named ~line target))
         | [ cond; t1; t2 ] ->
             let c = parse_operand ~line env ~expect:(Some Ty.i64) cond in
             Block.set_terminator blk
               (Cond_br (c, block_named ~line t1, block_named ~line t2))
         | _ -> error ~line "malformed branch %S" l
       end
       else if String.length l > 6 && (String.sub l 0 6 = "store " || String.sub l 0 7 = "vstore ")
       then begin
         let rest =
           if String.sub l 0 6 = "store " then String.sub l 6 (String.length l - 6)
           else String.sub l 7 (String.length l - 7)
         in
         match split_on_comma rest with
         | [ vtok; atok ] ->
             let addr = parse_operand ~line env ~expect:None atok in
             let elem =
               match Value.ty addr with
               | Ty.Ptr s -> s
               | _ -> error ~line "store address is not a pointer"
             in
             let v = parse_operand ~line env ~expect:(Some (Ty.Scalar elem)) vtok in
             let i = Func.fresh_instr f Store Ty.i32 [| v; addr |] in
             Block.append blk i
         | _ -> error ~line "malformed store %S" l
       end
       else begin
         (* %name = rhs *)
         match String.index_opt l '=' with
         | Some eq when String.length l > 1 && l.[0] = '%' ->
             let nm = strip (String.sub l 0 eq) in
             let rhs = String.sub l (eq + 1) (String.length l - eq - 1) in
             env.pending <- [];
             let op, ty, ops = parse_rhs ~line env rhs in
             if Hashtbl.mem env.values nm then error ~line "duplicate definition of %s" nm;
             let iname = String.sub nm 1 (String.length nm - 1) in
             let i = Func.fresh_instr f ~name:iname op ty ops in
             List.iter (fun (k, tok) -> fixups := (i, k, tok, line) :: !fixups) env.pending;
             env.pending <- [];
             Block.append blk i;
             define ~line nm (Instr i)
         | _ -> error ~line "unparsable line %S" l
       end);
    incr cur
  done;
  (* Patch phi forward references now every definition exists. *)
  List.iter
    (fun (i, k, tok, line) ->
      match Hashtbl.find_opt env.values tok with
      | Some v -> Instr.set_operand i k v
      | None -> error ~line "unknown value %s" tok)
    !fixups;
  f.next_iid <- max f.next_iid !past_names;
  f

(* [parse src] parses a printed function and verifies it. *)
let parse (src : string) : func =
  let f = parse_func src in
  (match Verifier.verify f with
  | [] -> ()
  | errors ->
      let report = errors |> List.map (Fmt.str "%a" Verifier.pp_error) |> String.concat "; " in
      raise (Parse_error { line = 0; message = "verification failed: " ^ report }));
  f
