(* Abstract syntax of KernelC.

   KernelC is the small C-like language used to express the evaluation
   kernels:

     kernel motiv_leaf(double A[], double B[], double C[], double D[],
                       long i) {
       A[i+0] = (B[i+0] - C[i+0]) + D[i+0];
       A[i+1] = (D[i+1] - C[i+1]) + B[i+1];
     }

   A kernel is a void function over array parameters and integer
   scalars; the body is straight-line code (plus simple [if]) — the
   shape SLP vectorizers operate on. *)

type pos = { line : int; col : int }

let pp_pos ppf p = Fmt.pf ppf "%d:%d" p.line p.col

type base_ty = Int_ty | Long_ty | Float_ty | Double_ty

type param_ty = Scalar_param of base_ty | Array_param of base_ty

type unop = Neg

type binop = Add | Sub | Mul | Div

type cmpop = Ceq | Cne | Clt | Cle | Cgt | Cge

type expr = { desc : expr_desc; epos : pos }

and expr_desc =
  | Int_lit of int64
  | Float_lit of float
  | Var of string
  | Index of string * expr (* A[e] *)
  | Unary of unop * expr
  | Binary of binop * expr * expr
  | Cmp of cmpop * expr * expr (* only valid as an [if] condition *)

type stmt = { sdesc : stmt_desc; spos : pos }

and stmt_desc =
  | Let of base_ty * string * expr (* double t = e; *)
  | Store of string * expr * expr (* A[e1] = e2; *)
  | If of expr * stmt list * stmt list (* else-branch possibly empty *)
  | For of for_loop
      (* for (long k = init; k < bound; k = k + step) { body } — the
         counted form only: the condition tests the loop variable, the
         step rebinds it by +/- an expression. *)

and for_loop = {
  fvar_ty : base_ty; (* an integer type *)
  fvar : string;
  finit : expr;
  fcmp : cmpop;
  fbound : expr; (* index-free: evaluated once, so it must be invariant *)
  fstep_op : binop; (* Add or Sub *)
  fstep : expr; (* index-free, like the bound *)
  fbody : stmt list;
}

type param = { pname : string; pty : param_ty; ppos : pos }

type kernel = { kname : string; kparams : param list; kbody : stmt list; kpos : pos }

let base_ty_to_string = function
  | Int_ty -> "int"
  | Long_ty -> "long"
  | Float_ty -> "float"
  | Double_ty -> "double"

let binop_to_string = function Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/"

let cmpop_to_string = function
  | Ceq -> "=="
  | Cne -> "!="
  | Clt -> "<"
  | Cle -> "<="
  | Cgt -> ">"
  | Cge -> ">="

let rec pp_expr ppf (e : expr) =
  match e.desc with
  | Int_lit i -> Fmt.pf ppf "%Ld" i
  | Float_lit f -> Fmt.pf ppf "%g" f
  | Var v -> Fmt.string ppf v
  | Index (a, e) -> Fmt.pf ppf "%s[%a]" a pp_expr e
  | Unary (Neg, e) -> Fmt.pf ppf "(-%a)" pp_expr e
  | Binary (op, a, b) -> Fmt.pf ppf "(%a %s %a)" pp_expr a (binop_to_string op) pp_expr b
  | Cmp (op, a, b) -> Fmt.pf ppf "(%a %s %a)" pp_expr a (cmpop_to_string op) pp_expr b

let rec pp_stmt ppf (s : stmt) =
  match s.sdesc with
  | Let (ty, x, e) -> Fmt.pf ppf "%s %s = %a;" (base_ty_to_string ty) x pp_expr e
  | Store (a, idx, e) -> Fmt.pf ppf "%s[%a] = %a;" a pp_expr idx pp_expr e
  | If (c, t, []) -> Fmt.pf ppf "if (%a) { %a }" pp_expr c (Fmt.list ~sep:Fmt.sp pp_stmt) t
  | If (c, t, e) ->
      Fmt.pf ppf "if (%a) { %a } else { %a }" pp_expr c
        (Fmt.list ~sep:Fmt.sp pp_stmt)
        t
        (Fmt.list ~sep:Fmt.sp pp_stmt)
        e
  | For fl ->
      Fmt.pf ppf "for (%s %s = %a; %s %s %a; %s = %s %s %a) { %a }"
        (base_ty_to_string fl.fvar_ty) fl.fvar pp_expr fl.finit fl.fvar
        (cmpop_to_string fl.fcmp) pp_expr fl.fbound fl.fvar fl.fvar
        (binop_to_string fl.fstep_op) pp_expr fl.fstep
        (Fmt.list ~sep:Fmt.sp pp_stmt) fl.fbody

let pp_param ppf (p : param) =
  match p.pty with
  | Scalar_param t -> Fmt.pf ppf "%s %s" (base_ty_to_string t) p.pname
  | Array_param t -> Fmt.pf ppf "%s %s[]" (base_ty_to_string t) p.pname

let pp_kernel ppf (k : kernel) =
  Fmt.pf ppf "kernel %s(%a) {@.%a@.}" k.kname
    (Fmt.list ~sep:(Fmt.any ", ") pp_param)
    k.kparams
    (Fmt.list ~sep:Fmt.cut (fun ppf s -> Fmt.pf ppf "  %a" pp_stmt s))
    k.kbody

(* The kernel serialised without source positions or its name, then
   hashed.  Each constructor writes a tag byte, names and lists carry
   their length, and integer and float literals are written as 8 bytes,
   floats by bit pattern: 0.0 and -0.0, or two constants [%g] prints
   alike, stay apart. *)
let digest (k : kernel) : string =
  let b = Buffer.create 1024 in
  let tag c = Buffer.add_char b c in
  let int n = Buffer.add_int64_le b (Int64.of_int n) in
  let name s =
    int (String.length s);
    Buffer.add_string b s
  in
  let base_ty t =
    tag (match t with Int_ty -> 'i' | Long_ty -> 'l' | Float_ty -> 'f' | Double_ty -> 'd')
  in
  let binop op = tag (match op with Add -> '+' | Sub -> '-' | Mul -> '*' | Div -> '/') in
  let cmpop op =
    tag (match op with Ceq -> '=' | Cne -> '!' | Clt -> '<' | Cle -> 'l' | Cgt -> '>' | Cge -> 'g')
  in
  let rec expr (e : expr) =
    match e.desc with
    | Int_lit i ->
        tag 'I';
        Buffer.add_int64_le b i
    | Float_lit f ->
        tag 'F';
        Buffer.add_int64_le b (Int64.bits_of_float f)
    | Var x ->
        tag 'V';
        name x
    | Index (a, i) ->
        tag 'X';
        name a;
        expr i
    | Unary (Neg, e) ->
        tag 'N';
        expr e
    | Binary (op, x, y) ->
        tag 'B';
        binop op;
        expr x;
        expr y
    | Cmp (op, x, y) ->
        tag 'C';
        cmpop op;
        expr x;
        expr y
  in
  let rec stmts ss =
    int (List.length ss);
    List.iter stmt ss
  and stmt (s : stmt) =
    match s.sdesc with
    | Let (t, x, e) ->
        tag 'L';
        base_ty t;
        name x;
        expr e
    | Store (a, i, e) ->
        tag 'S';
        name a;
        expr i;
        expr e
    | If (c, t, e) ->
        tag '?';
        expr c;
        stmts t;
        stmts e
    | For fl ->
        tag 'R';
        base_ty fl.fvar_ty;
        name fl.fvar;
        expr fl.finit;
        cmpop fl.fcmp;
        expr fl.fbound;
        binop fl.fstep_op;
        expr fl.fstep;
        stmts fl.fbody
  in
  int (List.length k.kparams);
  List.iter
    (fun p ->
      name p.pname;
      match p.pty with
      | Scalar_param t ->
          tag 's';
          base_ty t
      | Array_param t ->
          tag 'a';
          base_ty t)
    k.kparams;
  stmts k.kbody;
  Digest.to_hex (Digest.string (Buffer.contents b))
