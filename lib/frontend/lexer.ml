(* Hand-written lexer for KernelC.

   Menhir/ocamllex are not available in this environment, so both the
   lexer and the parser are hand-written; the language is small enough
   that this is also the simplest option. *)

type token =
  | KERNEL
  | IF
  | ELSE
  | FOR
  | TYPE of Ast.base_ty
  | IDENT of string
  | INT of int64
  | FLOAT of float
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | LPAREN
  | RPAREN
  | LBRACKET
  | RBRACKET
  | LBRACE
  | RBRACE
  | COMMA
  | SEMI
  | ASSIGN
  | EQ
  | NE
  | LT
  | LE
  | GT
  | GE
  | EOF

let token_to_string = function
  | KERNEL -> "kernel"
  | IF -> "if"
  | ELSE -> "else"
  | FOR -> "for"
  | TYPE t -> Ast.base_ty_to_string t
  | IDENT s -> s
  | INT i -> Int64.to_string i
  | FLOAT f -> string_of_float f
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | COMMA -> ","
  | SEMI -> ";"
  | ASSIGN -> "="
  | EQ -> "=="
  | NE -> "!="
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | EOF -> "<eof>"

exception Lex_error of string * Ast.pos

(* The lexer reads the source in place: [off] indexes [src], and a
   character is looked at only after [off < len] is checked, so lexing
   allocates per token (its position, an identifier's or literal's
   text), never per character. *)
type t = {
  src : string;
  len : int;
  mutable off : int;
  mutable line : int;
  mutable bol : int; (* offset of beginning of current line *)
}

let create src = { src; len = String.length src; off = 0; line = 1; bol = 0 }

let pos (lx : t) : Ast.pos = { line = lx.line; col = lx.off - lx.bol + 1 }

let error lx fmt = Printf.ksprintf (fun m -> raise (Lex_error (m, pos lx))) fmt

(* Whether the character [k] places ahead is [c]. *)
let looking_at (lx : t) k c = lx.off + k < lx.len && lx.src.[lx.off + k] = c

(* Step over the current character, which must exist. *)
let advance (lx : t) =
  if lx.src.[lx.off] = '\n' then begin
    lx.line <- lx.line + 1;
    lx.bol <- lx.off + 1
  end;
  lx.off <- lx.off + 1

(* Step over the current character when it is [c]. *)
let eat (lx : t) c =
  if looking_at lx 0 c then begin
    lx.off <- lx.off + 1;
    true
  end
  else false

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

(* Step over a run of characters satisfying [p], none of them a
   newline. *)
let skip_while (lx : t) p =
  while lx.off < lx.len && p lx.src.[lx.off] do
    lx.off <- lx.off + 1
  done

let rec close_comment (lx : t) =
  if lx.off >= lx.len then error lx "unterminated comment"
  else if looking_at lx 0 '*' && looking_at lx 1 '/' then lx.off <- lx.off + 2
  else begin
    advance lx;
    close_comment lx
  end

let rec skip_ws_and_comments (lx : t) =
  if lx.off < lx.len then
    match lx.src.[lx.off] with
    | ' ' | '\t' | '\r' | '\n' ->
        advance lx;
        skip_ws_and_comments lx
    | '/' when looking_at lx 1 '/' ->
        skip_while lx (fun c -> c <> '\n');
        skip_ws_and_comments lx
    | '/' when looking_at lx 1 '*' ->
        lx.off <- lx.off + 2;
        close_comment lx;
        skip_ws_and_comments lx
    | _ -> ()

let lex_ident (lx : t) =
  let start = lx.off in
  skip_while lx is_ident_char;
  String.sub lx.src start (lx.off - start)

let keyword = function
  | "kernel" -> Some KERNEL
  | "if" -> Some IF
  | "else" -> Some ELSE
  | "for" -> Some FOR
  | "int" -> Some (TYPE Ast.Int_ty)
  | "long" -> Some (TYPE Ast.Long_ty)
  | "float" -> Some (TYPE Ast.Float_ty)
  | "double" -> Some (TYPE Ast.Double_ty)
  | _ -> None

let lex_number (lx : t) =
  let start = lx.off in
  skip_while lx is_digit;
  let fraction = eat lx '.' in
  if fraction then skip_while lx is_digit;
  let exponent = eat lx 'e' || eat lx 'E' in
  if exponent then begin
    ignore (eat lx '+' || eat lx '-');
    skip_while lx is_digit
  end;
  let text = String.sub lx.src start (lx.off - start) in
  if fraction || exponent then
    match float_of_string_opt text with
    | Some f -> FLOAT f
    | None -> error lx "malformed float literal %S" text
  else
    match Int64.of_string_opt text with
    | Some i -> INT i
    | None -> error lx "malformed integer literal %S" text

(* Step over a one-character token. *)
let one (lx : t) tok =
  lx.off <- lx.off + 1;
  tok

(* A one-character token, or a two-character one when [second]
   follows. *)
let one_or_two (lx : t) ~second ~if_two ~if_one =
  lx.off <- lx.off + 1;
  if eat lx second then if_two else if_one

(* [next lx] returns the next token together with its start position. *)
let next (lx : t) : token * Ast.pos =
  skip_ws_and_comments lx;
  let p = pos lx in
  if lx.off >= lx.len then (EOF, p)
  else
    let c = lx.src.[lx.off] in
    if is_ident_start c then
      let word = lex_ident lx in
      match keyword word with Some tok -> (tok, p) | None -> (IDENT word, p)
    else if is_digit c then (lex_number lx, p)
    else
      let tok =
        match c with
        | '+' -> one lx PLUS
        | '-' -> one lx MINUS
        | '*' -> one lx STAR
        | '/' -> one lx SLASH
        | '(' -> one lx LPAREN
        | ')' -> one lx RPAREN
        | '[' -> one lx LBRACKET
        | ']' -> one lx RBRACKET
        | '{' -> one lx LBRACE
        | '}' -> one lx RBRACE
        | ',' -> one lx COMMA
        | ';' -> one lx SEMI
        | '=' -> one_or_two lx ~second:'=' ~if_two:EQ ~if_one:ASSIGN
        | '<' -> one_or_two lx ~second:'=' ~if_two:LE ~if_one:LT
        | '>' -> one_or_two lx ~second:'=' ~if_two:GE ~if_one:GT
        | '!' ->
            lx.off <- lx.off + 1;
            if eat lx '=' then NE else error lx "unexpected character '!'"
        | c -> error lx "unexpected character %C" c
      in
      (tok, p)

let tokens src =
  let lx = create src in
  let rec go acc =
    let tok, p = next lx in
    if tok = EOF then List.rev ((tok, p) :: acc) else go ((tok, p) :: acc)
  in
  go []
