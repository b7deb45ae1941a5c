(** Parser for the textual IR format emitted by {!Printer}, making the
    format round-trippable.  Constants are re-typed from their operand
    context; instruction names must be unique within the function.
    Instructions are numbered in order from 0, and the function's next
    id starts past every name ["%N"] or ["%vN"] read, the names fresh
    instructions take, so later passes print no name twice; [N] must
    be below 2{^24}. *)

exception Parse_error of { line : int; message : string }

val parse_func : string -> Defs.func
(** Parse without verification. *)

val parse : string -> Defs.func
(** Parse and verify; raises {!Parse_error} on malformed or
    ill-formed input. *)
