(* Facade: source text to verified IR. *)

exception Error of string

let () =
  Printexc.register_printer (function
    | Error m -> Some (Printf.sprintf "Frontend.Error: %s" m)
    | _ -> None)

let wrap f =
  try f () with
  | Lexer.Lex_error (m, p) -> raise (Error (Fmt.str "lex error at %a: %s" Ast.pp_pos p m))
  | Parser.Parse_error (m, p) ->
      raise (Error (Fmt.str "parse error at %a: %s" Ast.pp_pos p m))
  | Typecheck.Type_error (m, p) ->
      raise (Error (Fmt.str "type error at %a: %s" Ast.pp_pos p m))
  | Lower.Lower_error (m, p) ->
      raise (Error (Fmt.str "lowering error at %a: %s" Ast.pp_pos p m))

let parse (src : string) : Ast.kernel list = wrap (fun () -> Parser.parse_program src)

let lower (k : Ast.kernel) : Snslp_ir.Defs.func = wrap (fun () -> Lower.lower_kernel k)

type parsed = { ast : Ast.kernel; digest : string; signature : string }

let parse_digested (src : string) : parsed list =
  List.map
    (fun (ast : Ast.kernel) ->
      {
        ast;
        digest = Ast.digest ast;
        signature =
          String.concat ","
            (List.map
               (fun (p : Ast.param) -> Snslp_ir.Ty.to_string (Lower.param_ty p.Ast.pty))
               ast.Ast.kparams);
      })
    (parse src)

(* [compile src] parses, type-checks, lowers and verifies every kernel
   in [src]. *)
let compile (src : string) : Snslp_ir.Defs.func list = List.map lower (parse src)

(* [compile_one src] expects exactly one kernel. *)
let compile_one (src : string) : Snslp_ir.Defs.func =
  match compile src with
  | [ f ] -> f
  | fs -> raise (Error (Printf.sprintf "expected exactly one kernel, found %d" (List.length fs)))
