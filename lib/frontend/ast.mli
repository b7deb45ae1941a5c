(** Abstract syntax of KernelC — the small C-like language the
    evaluation kernels are written in: void kernels over array
    parameters and integer scalars, straight-line bodies of array
    assignments, local bindings and simple [if]s. *)

type pos = { line : int; col : int }

val pp_pos : pos Fmt.t

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
  | Index of string * expr (** [A[e]] *)
  | Unary of unop * expr
  | Binary of binop * expr * expr
  | Cmp of cmpop * expr * expr (** only valid as an [if] condition *)

type stmt = { sdesc : stmt_desc; spos : pos }

and stmt_desc =
  | Let of base_ty * string * expr (** [double t = e;] *)
  | Store of string * expr * expr (** [A[e1] = e2;] *)
  | If of expr * stmt list * stmt list (** else-branch possibly empty *)
  | For of for_loop
      (** [for (long k = init; k cmp bound; k = k +/- step) { body }] —
          the counted form only *)

and for_loop = {
  fvar_ty : base_ty;  (** an integer type *)
  fvar : string;
  finit : expr;
  fcmp : cmpop;
  fbound : expr;  (** index-free: evaluated once, so it must be invariant *)
  fstep_op : binop;  (** Add or Sub *)
  fstep : expr;  (** index-free, like the bound *)
  fbody : stmt list;
}

type param = { pname : string; pty : param_ty; ppos : pos }
type kernel = { kname : string; kparams : param list; kbody : stmt list; kpos : pos }

val base_ty_to_string : base_ty -> string
val binop_to_string : binop -> string
val cmpop_to_string : cmpop -> string

val pp_expr : expr Fmt.t
(** Fully parenthesised, so printing round-trips through the
    parser. *)

val pp_stmt : stmt Fmt.t
val pp_param : param Fmt.t
val pp_kernel : kernel Fmt.t

val digest : kernel -> string
(** MD5 (hex) of the kernel's structure, leaving out source positions
    and the kernel's own name; float literals enter by bit pattern.
    Two kernels with equal digests type-check alike and lower to the
    same function up to its name.  The converse does not hold: a [let]
    temporary or a literal [1] against [1.0] changes the digest but
    not the IR. *)
