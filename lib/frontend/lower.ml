(* Lowering from the KernelC AST to IR.

   Each kernel becomes one IR function; array parameters become typed
   pointers, scalar parameters become scalar arguments.  Array accesses
   lower to [gep] + [load]/[store]; [if] lowers to a diamond of blocks;
   counted [for] loops lower to a back-edge CFG whose header holds the
   one phi of the function (the induction variable).  Local [let]s are
   pure SSA bindings, so straight-line code needs no phis. *)

open Snslp_ir
module A = Ast

let scalar_of_base = function
  | A.Int_ty | A.Long_ty -> Ty.I64
  | A.Float_ty -> Ty.F32
  | A.Double_ty -> Ty.F64

let scalar_of_kty = function
  | Typecheck.K_int -> Ty.I64
  | Typecheck.K_float -> Ty.F32
  | Typecheck.K_double -> Ty.F64

exception Lower_error of string * A.pos

let error pos fmt = Printf.ksprintf (fun m -> raise (Lower_error (m, pos))) fmt

type env = {
  values : (string, Defs.value) Hashtbl.t; (* scalars and locals *)
  kinds : (string, Typecheck.ty) Hashtbl.t; (* their KernelC types *)
  arrays : (string, Defs.value * Ty.scalar) Hashtbl.t; (* base pointer, elem *)
  names : (string, unit) Hashtbl.t;
      (* argument and phi names the function uses, shared by every
         scope; every other instruction is named by its numeric id,
         which no identifier equals *)
  suffixes : (string, int) Hashtbl.t;
      (* loop variable -> the first suffix not yet known to be taken *)
}

(* The name of a loop's phi: the loop variable, unless an argument or
   an earlier phi has it (sequential loops may reuse a variable); then
   the variable with the first free suffix [_1], [_2], ... *)
let phi_name (env : env) x =
  let rec free k =
    let n = if k = 0 then x else Printf.sprintf "%s_%d" x k in
    if Hashtbl.mem env.names n then free (k + 1) else (n, k)
  in
  (* Names are only ever added, so every suffix below the one found
     last time is still taken: resume there. *)
  let n, k = free (Option.value ~default:0 (Hashtbl.find_opt env.suffixes x)) in
  Hashtbl.replace env.suffixes x (k + 1);
  Hashtbl.replace env.names n ();
  n

let ir_cmp = function
  | A.Ceq -> Defs.Eq
  | A.Cne -> Defs.Ne
  | A.Clt -> Defs.Lt
  | A.Cle -> Defs.Le
  | A.Cgt -> Defs.Gt
  | A.Cge -> Defs.Ge

let ir_binop = function A.Add -> Defs.Add | A.Sub -> Defs.Sub | A.Mul -> Defs.Mul | A.Div -> Defs.Div

(* The expected scalar type of an expression: reuse the typechecker's
   synthesis and fall back to the context type for literal-only
   expressions. *)
let rec lower_expr (env : env) (b : Builder.t) (want : Ty.scalar) (e : A.expr) : Defs.value =
  match e.A.desc with
  | A.Int_lit i ->
      if Ty.scalar_is_int want then Value.const_of_lit (Ty.Scalar want) (Lit.int64 i)
      else Value.const_of_lit (Ty.Scalar want) (Lit.float (Int64.to_float i))
  | A.Float_lit f ->
      if Ty.scalar_is_int want then error e.A.epos "float literal in integer context"
      else Value.const_of_lit (Ty.Scalar want) (Lit.float f)
  | A.Var x -> (
      match Hashtbl.find_opt env.values x with
      | Some v -> v
      | None -> error e.A.epos "unbound identifier %s" x)
  | A.Index (a, idx) -> (
      match Hashtbl.find_opt env.arrays a with
      | Some (base, _elem) ->
          let iv = lower_expr env b Ty.I64 idx in
          let addr = Builder.gep b base iv in
          Instr.value (Builder.load b (Instr.value addr))
      | None -> error e.A.epos "%s is not an array" a)
  | A.Unary (A.Neg, e') ->
      let v = lower_expr env b want e' in
      let zero =
        if Ty.scalar_is_int want then Value.const_int ~ty:(Ty.Scalar want) 0
        else Value.const_float ~ty:(Ty.Scalar want) 0.0
      in
      Instr.value (Builder.sub b zero v)
  | A.Binary (op, x, y) ->
      let vx = lower_expr env b want x in
      let vy = lower_expr env b want y in
      Instr.value (Builder.binop b (ir_binop op) vx vy)
  | A.Cmp _ -> error e.A.epos "comparison used as a value"

(* The scalar type a condition's operands should be lowered at. *)
let cond_operand_ty (env : env) (a : A.expr) (b : A.expr) : Ty.scalar =
  let tenv = Hashtbl.create 16 in
  Hashtbl.iter (fun k v -> Hashtbl.replace tenv k (Typecheck.Local v)) env.kinds;
  Hashtbl.iter
    (fun k (_, elem) ->
      let kty =
        match elem with
        | Ty.F32 -> Typecheck.K_float
        | Ty.F64 -> Typecheck.K_double
        | Ty.I32 | Ty.I64 -> Typecheck.K_int
      in
      Hashtbl.replace tenv k (Typecheck.Array_arg kty))
    env.arrays;
  match (Typecheck.synth tenv a, Typecheck.synth tenv b) with
  | Some t, _ | _, Some t -> scalar_of_kty t
  | None, None -> Ty.I64

let lower_cond (env : env) (b : Builder.t) (c : A.expr) : Defs.value =
  match c.A.desc with
  | A.Cmp (op, x, y) ->
      let want = cond_operand_ty env x y in
      let vx = lower_expr env b want x in
      let vy = lower_expr env b want y in
      if Ty.scalar_is_int want then Instr.value (Builder.icmp b (ir_cmp op) vx vy)
      else Instr.value (Builder.fcmp b (ir_cmp op) vx vy)
  | _ -> error c.A.epos "condition must be a comparison"

(* Lower statements into the block the builder points at; returns with
   the builder pointing at the block where control continues. *)
let rec lower_stmts (env : env) (b : Builder.t) ~(fresh_block : string -> Defs.block)
    (stmts : A.stmt list) =
  List.iter (lower_stmt env b ~fresh_block) stmts

and lower_stmt (env : env) (b : Builder.t) ~fresh_block (s : A.stmt) =
  match s.A.sdesc with
  | A.Let (bt, x, e) ->
      let v = lower_expr env b (scalar_of_base bt) e in
      Hashtbl.replace env.values x v;
      Hashtbl.replace env.kinds x (Typecheck.of_base bt)
  | A.Store (a, idx, e) -> (
      match Hashtbl.find_opt env.arrays a with
      | Some (base, elem) ->
          let iv = lower_expr env b Ty.I64 idx in
          let v = lower_expr env b elem e in
          let addr = Builder.gep b base iv in
          ignore (Builder.store b v (Instr.value addr))
      | None -> error s.A.spos "%s is not an array" a)
  | A.If (cond, then_body, else_body) ->
      let cv = lower_cond env b cond in
      let then_b = fresh_block "then" in
      let join_b = fresh_block "join" in
      let else_b = if else_body = [] then join_b else fresh_block "else" in
      Builder.cond_br b cv then_b else_b;
      Builder.position b then_b;
      (* Branch-local bindings must not leak: scope via copies. *)
      let scoped = { env with values = Hashtbl.copy env.values; kinds = Hashtbl.copy env.kinds } in
      lower_stmts scoped b ~fresh_block then_body;
      Builder.br b join_b;
      if else_body <> [] then begin
        Builder.position b else_b;
        let scoped =
          { env with values = Hashtbl.copy env.values; kinds = Hashtbl.copy env.kinds }
        in
        lower_stmts scoped b ~fresh_block else_body;
        Builder.br b join_b
      end;
      Builder.position b join_b
  | A.For fl ->
      (* The canonical rotated counted loop (the shape the unroll
         pass recognizes):

           preheader: init/bound/step computed; br header
           header:    iv = phi [init from preheader, next from latch]
                      cond_br (iv cmp bound), body, exit
           body..:    the lowered body
           latch:     next = iv +/- step; br header

         The phi's back-edge operand is a placeholder until the latch
         exists. *)
      let init_v = lower_expr env b Ty.I64 fl.A.finit in
      let bound_v = lower_expr env b Ty.I64 fl.A.fbound in
      let step_v = lower_expr env b Ty.I64 fl.A.fstep in
      let preheader = Builder.block b in
      let header = fresh_block "head" in
      let body_b = fresh_block "lbody" in
      let latch = fresh_block "latch" in
      let exit_b = fresh_block "lexit" in
      Builder.br b header;
      Builder.position b header;
      let iv =
        Builder.phi b ~name:(phi_name env fl.A.fvar) ~preds:[| preheader; latch |]
          [| init_v; Defs.Undef (Ty.Scalar Ty.I64) |]
      in
      let cond = Builder.icmp b (ir_cmp fl.A.fcmp) (Instr.value iv) bound_v in
      Builder.cond_br b (Instr.value cond) body_b exit_b;
      Builder.position b body_b;
      let scoped =
        { env with values = Hashtbl.copy env.values; kinds = Hashtbl.copy env.kinds }
      in
      Hashtbl.replace scoped.values fl.A.fvar (Instr.value iv);
      Hashtbl.replace scoped.kinds fl.A.fvar Typecheck.K_int;
      lower_stmts scoped b ~fresh_block fl.A.fbody;
      Builder.br b latch;
      Builder.position b latch;
      let next = Builder.binop b (ir_binop fl.A.fstep_op) (Instr.value iv) step_v in
      Builder.br b header;
      Instr.set_operand iv 1 (Instr.value next);
      Builder.position b exit_b

(* The IR type of a parameter: array parameters become typed
   pointers. *)
let param_ty = function
  | A.Scalar_param t -> Ty.Scalar (scalar_of_base t)
  | A.Array_param t -> Ty.ptr (scalar_of_base t)

let lower_kernel (k : A.kernel) : Defs.func =
  Typecheck.check_kernel k;
  let args = List.map (fun (p : A.param) -> (p.A.pname, param_ty p.A.pty)) k.A.kparams in
  let f = Func.create ~name:k.A.kname ~args in
  let entry = Func.add_block f "entry" in
  let b = Builder.create f ~at:entry in
  let env =
    {
      values = Hashtbl.create 16;
      kinds = Hashtbl.create 16;
      arrays = Hashtbl.create 16;
      names = Hashtbl.create 16;
      suffixes = Hashtbl.create 4;
    }
  in
  List.iter (fun (name, _) -> Hashtbl.replace env.names name ()) args;
  List.iter
    (fun (p : A.param) ->
      let arg =
        match Func.find_arg f p.A.pname with Some a -> a | None -> assert false
      in
      match p.A.pty with
      | A.Scalar_param t ->
          Hashtbl.replace env.values p.A.pname (Defs.Arg arg);
          Hashtbl.replace env.kinds p.A.pname (Typecheck.of_base t)
      | A.Array_param t ->
          Hashtbl.replace env.arrays p.A.pname (Defs.Arg arg, scalar_of_base t))
    k.A.kparams;
  let counter = ref 0 in
  let created = ref [] in
  let fresh_block prefix =
    incr counter;
    let blk = Func.fresh_block f (Printf.sprintf "%s%d" prefix !counter) in
    created := blk :: !created;
    blk
  in
  lower_stmts env b ~fresh_block k.A.kbody;
  f.Defs.blocks <- f.Defs.blocks @ List.rev !created;
  Builder.ret b;
  Verifier.verify_exn f;
  f
