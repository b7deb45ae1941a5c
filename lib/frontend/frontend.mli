(** Facade: KernelC source text to verified IR. *)

exception Error of string
(** Wraps lexer, parser, typechecker and lowering errors with
    positions. *)

val parse : string -> Ast.kernel list

val lower : Ast.kernel -> Snslp_ir.Defs.func
(** Type-check, lower and verify one parsed kernel. *)

type parsed = {
  ast : Ast.kernel;
  digest : string;  (** {!Ast.digest} of [ast] *)
  signature : string;
      (** the argument types as the IR prints them, comma-separated:
          what {!Snslp_lint.Semhash.signature} reads off the lowered
          function *)
}

val parse_digested : string -> parsed list
(** Parse every kernel and digest it, without type-checking or
    lowering: what a compile cache can key on before it decides
    whether to lower. *)

val compile : string -> Snslp_ir.Defs.func list
(** Parse, type-check, lower and verify every kernel. *)

val compile_one : string -> Snslp_ir.Defs.func
(** Like {!compile}, expecting exactly one kernel. *)
