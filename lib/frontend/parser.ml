(* Recursive-descent parser for KernelC.

   Grammar:

     program  := kernel+
     kernel   := "kernel" IDENT "(" params? ")" block
     params   := param ("," param)*
     param    := type IDENT ("[" "]")?
     block    := "{" stmt* "}"
     stmt     := type IDENT "=" expr ";"
               | IDENT "[" expr "]" "=" expr ";"
               | "if" "(" expr ")" block ("else" block)?
               | "for" "(" type IDENT "=" expr ";"
                           IDENT cmpop expr ";"
                           IDENT "=" IDENT ("+"|"-") expr ")" block
     expr     := cmp
     cmp      := arith ((==|!=|<|<=|>|>=) arith)?
     arith    := term (("+"|"-") term)*
     term     := factor (("*"|"/") factor)*
     factor   := "-" factor | primary
     primary  := INT | FLOAT | IDENT | IDENT "[" expr "]" | "(" expr ")"
*)

open Lexer

exception Parse_error of string * Ast.pos

(* The parser looks one token ahead: [cur] is the next token, lexed
   when the one before it was consumed, so no token list is built and
   a lexical error surfaces when the parse reaches it. *)
type t = { lx : Lexer.t; mutable cur : token * Ast.pos }

let error (p : Ast.pos) fmt = Printf.ksprintf (fun m -> raise (Parse_error (m, p))) fmt

let peek (ps : t) = ps.cur

let advance (ps : t) = match ps.cur with EOF, _ -> () | _ -> ps.cur <- Lexer.next ps.lx

let expect (ps : t) tok what =
  let got, p = peek ps in
  if got = tok then advance ps
  else error p "expected %s, found %S" what (token_to_string got)

let expect_ident (ps : t) what =
  match peek ps with
  | IDENT s, _ ->
      advance ps;
      s
  | got, p -> error p "expected %s, found %S" what (token_to_string got)

let rec parse_expr (ps : t) : Ast.expr = parse_arith ps

and parse_arith (ps : t) : Ast.expr =
  let rec loop lhs =
    match peek ps with
    | PLUS, p ->
        advance ps;
        let rhs = parse_term ps in
        loop { Ast.desc = Ast.Binary (Ast.Add, lhs, rhs); epos = p }
    | MINUS, p ->
        advance ps;
        let rhs = parse_term ps in
        loop { Ast.desc = Ast.Binary (Ast.Sub, lhs, rhs); epos = p }
    | _ -> lhs
  in
  loop (parse_term ps)

and parse_term (ps : t) : Ast.expr =
  let rec loop lhs =
    match peek ps with
    | STAR, p ->
        advance ps;
        let rhs = parse_factor ps in
        loop { Ast.desc = Ast.Binary (Ast.Mul, lhs, rhs); epos = p }
    | SLASH, p ->
        advance ps;
        let rhs = parse_factor ps in
        loop { Ast.desc = Ast.Binary (Ast.Div, lhs, rhs); epos = p }
    | _ -> lhs
  in
  loop (parse_factor ps)

and parse_factor (ps : t) : Ast.expr =
  match peek ps with
  | MINUS, p ->
      advance ps;
      let e = parse_factor ps in
      { Ast.desc = Ast.Unary (Ast.Neg, e); epos = p }
  | _ -> parse_primary ps

and parse_primary (ps : t) : Ast.expr =
  match peek ps with
  | INT i, p ->
      advance ps;
      { Ast.desc = Ast.Int_lit i; epos = p }
  | FLOAT f, p ->
      advance ps;
      { Ast.desc = Ast.Float_lit f; epos = p }
  | LPAREN, _ ->
      advance ps;
      let e = parse_expr ps in
      expect ps RPAREN "')'";
      e
  | IDENT name, p -> (
      advance ps;
      match peek ps with
      | LBRACKET, _ ->
          advance ps;
          let idx = parse_expr ps in
          expect ps RBRACKET "']'";
          { Ast.desc = Ast.Index (name, idx); epos = p }
      | _ -> { Ast.desc = Ast.Var name; epos = p })
  | got, p -> error p "expected expression, found %S" (token_to_string got)

let rec parse_stmt (ps : t) : Ast.stmt =
  match peek ps with
  | TYPE ty, p ->
      advance ps;
      let name = expect_ident ps "local variable name" in
      expect ps ASSIGN "'='";
      let e = parse_expr ps in
      expect ps SEMI "';'";
      { Ast.sdesc = Ast.Let (ty, name, e); spos = p }
  | IF, p ->
      advance ps;
      expect ps LPAREN "'('";
      let cond = parse_cond ps in
      expect ps RPAREN "')'";
      let then_body = parse_block ps in
      let else_body =
        match peek ps with
        | ELSE, _ ->
            advance ps;
            parse_block ps
        | _ -> []
      in
      { Ast.sdesc = Ast.If (cond, then_body, else_body); spos = p }
  | FOR, p ->
      (* The counted form only: the condition's left-hand side and the
         step's target must all be the loop variable. *)
      advance ps;
      expect ps LPAREN "'('";
      let fvar_ty =
        match peek ps with
        | TYPE ty, _ ->
            advance ps;
            ty
        | got, p -> error p "expected loop variable type, found %S" (token_to_string got)
      in
      let fvar = expect_ident ps "loop variable name" in
      expect ps ASSIGN "'='";
      let finit = parse_expr ps in
      expect ps SEMI "';'";
      let cvar = expect_ident ps "loop variable in condition" in
      if cvar <> fvar then
        error p "loop condition must test the loop variable %s, found %s" fvar cvar;
      let fcmp =
        match peek ps with
        | EQ, _ -> advance ps; Ast.Ceq
        | NE, _ -> advance ps; Ast.Cne
        | LT, _ -> advance ps; Ast.Clt
        | LE, _ -> advance ps; Ast.Cle
        | GT, _ -> advance ps; Ast.Cgt
        | GE, _ -> advance ps; Ast.Cge
        | got, p -> error p "expected a comparison operator, found %S" (token_to_string got)
      in
      let fbound = parse_arith ps in
      expect ps SEMI "';'";
      let svar = expect_ident ps "loop variable in step" in
      if svar <> fvar then
        error p "loop step must assign the loop variable %s, found %s" fvar svar;
      expect ps ASSIGN "'='";
      let svar2 = expect_ident ps "loop variable in step" in
      if svar2 <> fvar then
        error p "loop step must be %s = %s + e or %s = %s - e" fvar fvar fvar fvar;
      let fstep_op =
        match peek ps with
        | PLUS, _ -> advance ps; Ast.Add
        | MINUS, _ -> advance ps; Ast.Sub
        | got, p -> error p "expected '+' or '-' in loop step, found %S" (token_to_string got)
      in
      let fstep = parse_arith ps in
      expect ps RPAREN "')'";
      let fbody = parse_block ps in
      {
        Ast.sdesc =
          Ast.For { fvar_ty; fvar; finit; fcmp; fbound; fstep_op; fstep; fbody };
        spos = p;
      }
  | IDENT name, p -> (
      advance ps;
      match peek ps with
      | LBRACKET, _ ->
          advance ps;
          let idx = parse_expr ps in
          expect ps RBRACKET "']'";
          expect ps ASSIGN "'='";
          let e = parse_expr ps in
          expect ps SEMI "';'";
          { Ast.sdesc = Ast.Store (name, idx, e); spos = p }
      | got, p -> error p "expected '[', found %S" (token_to_string got))
  | got, p -> error p "expected statement, found %S" (token_to_string got)

(* Conditions: a single comparison between arithmetic expressions (no
   boolean connectives — the kernels we target do not need them). *)
and parse_cond (ps : t) : Ast.expr =
  let lhs = parse_arith ps in
  match peek ps with
  | (EQ | NE | LT | LE | GT | GE), _ ->
      let tok, p = peek ps in
      advance ps;
      let rhs = parse_arith ps in
      let op =
        match tok with
        | EQ -> Ast.Ceq
        | NE -> Ast.Cne
        | LT -> Ast.Clt
        | LE -> Ast.Cle
        | GT -> Ast.Cgt
        | GE -> Ast.Cge
        | _ -> assert false
      in
      { Ast.desc = Ast.Cmp (op, lhs, rhs); epos = p }
  | _, p -> error p "expected a comparison operator in condition"

and parse_block (ps : t) : Ast.stmt list =
  expect ps LBRACE "'{'";
  let rec loop acc =
    match peek ps with
    | RBRACE, _ ->
        advance ps;
        List.rev acc
    | EOF, p -> error p "unterminated block"
    | _ -> loop (parse_stmt ps :: acc)
  in
  loop []

let parse_kernel (ps : t) : Ast.kernel =
  let _, kpos = peek ps in
  expect ps KERNEL "'kernel'";
  let kname = expect_ident ps "kernel name" in
  expect ps LPAREN "'('";
  let rec params acc =
    match peek ps with
    | RPAREN, _ ->
        advance ps;
        List.rev acc
    | TYPE ty, ppos -> (
        advance ps;
        let pname = expect_ident ps "parameter name" in
        let pty =
          match peek ps with
          | LBRACKET, _ ->
              advance ps;
              expect ps RBRACKET "']'";
              Ast.Array_param ty
          | _ -> Ast.Scalar_param ty
        in
        let acc = { Ast.pname; pty; ppos } :: acc in
        match peek ps with
        | COMMA, _ ->
            advance ps;
            params acc
        | RPAREN, _ ->
            advance ps;
            List.rev acc
        | got, p -> error p "expected ',' or ')', found %S" (token_to_string got))
    | got, p -> error p "expected parameter type, found %S" (token_to_string got)
  in
  let kparams = params [] in
  let kbody = parse_block ps in
  { Ast.kname; kparams; kbody; kpos }

let parse_program (src : string) : Ast.kernel list =
  let lx = Lexer.create src in
  let ps = { lx; cur = Lexer.next lx } in
  let rec loop acc =
    match peek ps with
    | EOF, _ -> List.rev acc
    | _ -> loop (parse_kernel ps :: acc)
  in
  loop []
