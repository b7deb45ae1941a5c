(* Frontend tests: lexer, parser, typechecker, lowering. *)

open Snslp_frontend
open Snslp_ir

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let has_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* --- Lexer ----------------------------------------------------------- *)

let test_lexer_tokens () =
  let toks = Lexer.tokens "kernel f(double A[]) { A[0] = 1.5e2 + 2 * x; }" in
  let kinds = List.map fst toks in
  check "starts with kernel" true (List.hd kinds = Lexer.KERNEL);
  check "has float" true (List.mem (Lexer.FLOAT 150.0) kinds);
  check "has int" true (List.mem (Lexer.INT 2L) kinds);
  check "has ident x" true (List.mem (Lexer.IDENT "x") kinds);
  check "ends with eof" true (List.mem Lexer.EOF kinds)

let test_lexer_comments () =
  let toks = Lexer.tokens "// line comment\n/* block\ncomment */ kernel" in
  check_int "only kernel and eof" 2 (List.length toks)

let test_lexer_positions () =
  let toks = Lexer.tokens "kernel\n  foo" in
  match toks with
  | [ (Lexer.KERNEL, p1); (Lexer.IDENT "foo", p2); (Lexer.EOF, _) ] ->
      check_int "line 1" 1 p1.Ast.line;
      check_int "col 1" 1 p1.Ast.col;
      check_int "line 2" 2 p2.Ast.line;
      check_int "col 3" 3 p2.Ast.col
  | _ -> Alcotest.fail "unexpected token stream"

let test_lexer_operators () =
  let toks = Lexer.tokens "== != <= >= < > = + - * /" in
  check_int "eleven operators + eof" 12 (List.length toks)

let test_lexer_errors () =
  check "bad char" true
    (try
       ignore (Lexer.tokens "kernel @");
       false
     with Lexer.Lex_error _ -> true);
  check "unterminated comment" true
    (try
       ignore (Lexer.tokens "/* never closed");
       false
     with Lexer.Lex_error _ -> true)

(* The token stream of every registry kernel and Fullbench unit, one
   line per token with its position (floats by bit pattern), pinned by
   an MD5; and the exact outcome of malformed or unusual inputs.  Both
   were captured before the lexer stopped allocating per character. *)
let lexer_streams_md5 = "fcda08566bccfb2ae0af2a721380307e"

let token_line (tok, (p : Ast.pos)) =
  let t =
    match tok with
    | Lexer.FLOAT f -> Printf.sprintf "FLOAT %Lx" (Int64.bits_of_float f)
    | Lexer.INT i -> Printf.sprintf "INT %Ld" i
    | Lexer.IDENT s -> "IDENT " ^ s
    | tok -> Lexer.token_to_string tok
  in
  Printf.sprintf "%s %d:%d\n" t p.Ast.line p.Ast.col

let lex_outcome src =
  match Lexer.tokens src with
  | toks -> "ok " ^ String.concat "" (List.map token_line toks)
  | exception Lexer.Lex_error (m, p) -> Printf.sprintf "error %d:%d %s" p.Ast.line p.Ast.col m

let test_lexer_pinned_streams () =
  let sources =
    List.map (fun (k : Snslp_kernels.Registry.t) -> k.Snslp_kernels.Registry.source)
      Snslp_kernels.Registry.all
    @ List.map Snslp_kernels.Fullbench.source Snslp_kernels.Fullbench.all
  in
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun src -> List.iter (fun t -> Buffer.add_string buf (token_line t)) (Lexer.tokens src))
    sources;
  Alcotest.(check string) "tokens and positions, registry + Fullbench" lexer_streams_md5
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let pinned_lexes =
  [
    ("/* never closed", "error 1:16 unterminated comment");
    ("/* a\n b *", "error 2:5 unterminated comment");
    ("x = 1e;", "error 1:7 malformed float literal \"1e\"");
    ("1e+", "error 1:4 malformed float literal \"1e+\"");
    ("a ! b", "error 1:4 unexpected character '!'");
    ("!", "error 1:2 unexpected character '!'");
    ("kernel @", "error 1:8 unexpected character '@'");
    ("x\n\t#y", "error 2:2 unexpected character '#'");
    ("a\000b", "error 1:2 unexpected character '\\000'");
    ("1.5.3", "error 1:4 unexpected character '.'");
    ("99999999999999999999", "error 1:21 malformed integer literal \"99999999999999999999\"");
    ("9223372036854775808", "error 1:20 malformed integer literal \"9223372036854775808\"");
    ("caf\195\169", "error 1:4 unexpected character '\\195'");
    ( "1.e5 1e5x 0x10 007 1_000 // trailing comment",
      "ok FLOAT 40f86a0000000000 1:1\nFLOAT 40f86a0000000000 1:6\nIDENT x 1:9\nINT 0 1:11\n\
       IDENT x10 1:12\nINT 7 1:16\nINT 1 1:20\nIDENT _000 1:21\n<eof> 1:45\n" );
    ( "a!=b\r\n!= <=>= ===",
      "ok IDENT a 1:1\n!= 1:2\nIDENT b 1:4\n!= 2:1\n<= 2:4\n>= 2:6\n== 2:9\n= 2:11\n<eof> 2:12\n" );
    ("", "ok <eof> 1:1\n");
    ("/**/ / /* * / */ 1/2", "ok / 1:6\nINT 1 1:18\n/ 1:19\nINT 2 1:20\n<eof> 1:21\n");
    ( "1e-3e 2E+2",
      "ok FLOAT 3f50624dd2f1a9fc 1:1\nIDENT e 1:5\nFLOAT 4069000000000000 1:7\n<eof> 1:11\n" );
  ]

let test_lexer_pinned_errors () =
  List.iter (fun (src, want) -> Alcotest.(check string) (String.escaped src) want (lex_outcome src))
    pinned_lexes

(* The same inputs through the parser, which lexes one token ahead of
   what it has consumed: a parse error before a malformed token is
   reported first ("x = 1e;" fails on "x", where the lexer alone stops
   at "1e"). *)
let pinned_parses =
  [
    "lex error at 1:16: unterminated comment";
    "lex error at 2:5: unterminated comment";
    "parse error at 1:1: expected 'kernel', found \"x\"";
    "lex error at 1:4: malformed float literal \"1e+\"";
    "parse error at 1:1: expected 'kernel', found \"a\"";
    "lex error at 1:2: unexpected character '!'";
    "lex error at 1:8: unexpected character '@'";
    "parse error at 1:1: expected 'kernel', found \"x\"";
    "parse error at 1:1: expected 'kernel', found \"a\"";
    "parse error at 1:1: expected 'kernel', found \"1.5\"";
    "lex error at 1:21: malformed integer literal \"99999999999999999999\"";
    "lex error at 1:20: malformed integer literal \"9223372036854775808\"";
    "parse error at 1:1: expected 'kernel', found \"caf\"";
    "parse error at 1:1: expected 'kernel', found \"100000.\"";
    "parse error at 1:1: expected 'kernel', found \"a\"";
    "ok";
    "parse error at 1:6: expected 'kernel', found \"/\"";
    "parse error at 1:1: expected 'kernel', found \"0.001\"";
  ]

let test_parser_pinned_errors () =
  List.iter2
    (fun (src, _) want ->
      let got = match Frontend.parse src with _ -> "ok" | exception Frontend.Error m -> m in
      Alcotest.(check string) (String.escaped src) want got)
    pinned_lexes pinned_parses

(* --- Parser ---------------------------------------------------------- *)

let motiv_src =
  {|
kernel motiv(long A[], long B[], long C[], long D[], long i) {
  A[i+0] = B[i+0] - C[i+0] + D[i+0];
  A[i+1] = D[i+1] - C[i+1] + B[i+1];
}
|}

let test_parse_kernel () =
  match Frontend.parse motiv_src with
  | [ k ] ->
      Alcotest.(check string) "name" "motiv" k.Ast.kname;
      check_int "params" 5 (List.length k.Ast.kparams);
      check_int "stmts" 2 (List.length k.Ast.kbody)
  | _ -> Alcotest.fail "expected one kernel"

let test_parse_precedence () =
  (* a + b * c parses as a + (b * c). *)
  let src = "kernel p(double A[], double a, double b, double c) { A[0] = a + b * c; }" in
  match Frontend.parse src with
  | [ { Ast.kbody = [ { Ast.sdesc = Ast.Store (_, _, e); _ } ]; _ } ] -> (
      match e.Ast.desc with
      | Ast.Binary (Ast.Add, _, { Ast.desc = Ast.Binary (Ast.Mul, _, _); _ }) -> ()
      | _ -> Alcotest.fail "wrong precedence")
  | _ -> Alcotest.fail "parse failure"

let test_parse_associativity () =
  (* a - b + c parses as (a - b) + c. *)
  let src = "kernel p(double A[], double a, double b, double c) { A[0] = a - b + c; }" in
  match Frontend.parse src with
  | [ { Ast.kbody = [ { Ast.sdesc = Ast.Store (_, _, e); _ } ]; _ } ] -> (
      match e.Ast.desc with
      | Ast.Binary (Ast.Add, { Ast.desc = Ast.Binary (Ast.Sub, _, _); _ }, _) -> ()
      | _ -> Alcotest.fail "wrong associativity")
  | _ -> Alcotest.fail "parse failure"

let test_parse_unary_minus () =
  let src = "kernel p(double A[], double a) { A[0] = -a * a; }" in
  match Frontend.parse src with
  | [ { Ast.kbody = [ { Ast.sdesc = Ast.Store (_, _, e); _ } ]; _ } ] -> (
      (* -a * a parses as (-a) * a. *)
      match e.Ast.desc with
      | Ast.Binary (Ast.Mul, { Ast.desc = Ast.Unary (Ast.Neg, _); _ }, _) -> ()
      | _ -> Alcotest.fail "unary minus mis-parsed")
  | _ -> Alcotest.fail "parse failure"

let test_parse_if_else () =
  let src =
    {|
kernel p(double A[], long i) {
  if (i < 4) { A[i] = 1.0; } else { A[i] = 2.0; }
}
|}
  in
  match Frontend.parse src with
  | [ { Ast.kbody = [ { Ast.sdesc = Ast.If (_, [ _ ], [ _ ]); _ } ]; _ } ] -> ()
  | _ -> Alcotest.fail "if/else mis-parsed"

let test_parse_errors () =
  let bad src =
    try
      ignore (Frontend.parse src);
      false
    with Frontend.Error _ -> true
  in
  check "missing semicolon" true (bad "kernel f(double A[]) { A[0] = 1.0 }");
  check "missing paren" true (bad "kernel f(double A[] { }");
  check "statement without assign" true (bad "kernel f(double A[]) { A[0]; }");
  check "condition needs comparison" true
    (bad "kernel f(double A[], long i) { if (i) { A[0] = 1.0; } }")

(* --- Typechecking ---------------------------------------------------- *)

let test_type_errors () =
  let bad src =
    try
      ignore (Frontend.compile src);
      false
    with Frontend.Error _ -> true
  in
  check "unbound identifier" true (bad "kernel f(double A[]) { A[0] = x; }");
  check "array used as scalar" true (bad "kernel f(double A[], double B[]) { A[0] = B; }");
  check "scalar indexed" true (bad "kernel f(double A[], double x) { A[0] = x[1]; }");
  check "int/double mix" true
    (bad "kernel f(double A[], long B[], long i) { A[i] = B[i]; }");
  check "float index" true (bad "kernel f(double A[], double x) { A[x] = 1.0; }");
  check "float literal in int context" true (bad "kernel f(long A[]) { A[0] = 1.5; }");
  check "int division rejected" true
    (bad "kernel f(long A[], long i) { A[i] = A[i] / 2; }");
  check "duplicate param" true (bad "kernel f(double A[], double A[]) { }");
  check "redefined local" true
    (bad "kernel f(double A[]) { double t = 1.0; double t = 2.0; A[0] = t; }")

(* --- Kernel digest ---------------------------------------------------- *)

(* The digest a compile cache keys parsed kernels on: blind to layout,
   comments, redundant parentheses and the kernel's name, and to
   nothing that reaches the IR. *)
let digest_of src =
  match Frontend.parse_digested src with
  | [ k ] -> k.Frontend.digest
  | ks -> Alcotest.failf "expected one kernel, found %d" (List.length ks)

let digest_base =
  "kernel f(double A[], double B[], long i) {\n\
  \  for (long j = 0; j < 4; j = j + 1) { A[i+j] = B[i+j] * 2.0 + 0.0; }\n\
   }"

let test_digest_ignores_layout () =
  let same what src =
    Alcotest.(check string) what (digest_of digest_base) (digest_of src)
  in
  same "whitespace"
    "kernel f ( double A [ ] , double B[],long i ){\n\n\
    \ for(long j=0;j<4;j=j+1){A[i+j]=B[i+j]*2.0+0.0;}}";
  same "comments"
    "// header\nkernel f(double A[], double B[], long i) { /* loop */\n\
    \  for (long j = 0; j < 4; j = j + 1) { A[i+j] = B[i+j] * 2.0 + 0.0; } // end\n\
     }";
  same "the kernel's name"
    "kernel renamed(double A[], double B[], long i) {\n\
    \  for (long j = 0; j < 4; j = j + 1) { A[i+j] = B[i+j] * 2.0 + 0.0; }\n\
     }";
  same "redundant parentheses"
    "kernel f(double A[], double B[], long i) {\n\
    \  for (long j = 0; j < 4; j = j + 1) { A[(i+j)] = ((B[i+j] * 2.0)) + (0.0); }\n\
     }"

let test_digest_sees_what_lowers () =
  let base = digest_of digest_base in
  let differs what src =
    if String.equal base (digest_of src) then Alcotest.failf "%s left the digest unchanged" what
  in
  differs "0.0 against -0.0"
    "kernel f(double A[], double B[], long i) {\n\
    \  for (long j = 0; j < 4; j = j + 1) { A[i+j] = B[i+j] * 2.0 + -0.0; }\n\
     }";
  differs "an operand swap"
    "kernel f(double A[], double B[], long i) {\n\
    \  for (long j = 0; j < 4; j = j + 1) { A[i+j] = 2.0 * B[i+j] + 0.0; }\n\
     }";
  differs "a parameter name"
    "kernel f(double A[], double C[], long i) {\n\
    \  for (long j = 0; j < 4; j = j + 1) { A[i+j] = C[i+j] * 2.0 + 0.0; }\n\
     }";
  differs "a type"
    "kernel f(double A[], float B[], long i) {\n\
    \  for (long j = 0; j < 4; j = j + 1) { A[i+j] = B[i+j] * 2.0 + 0.0; }\n\
     }";
  differs "a loop bound"
    "kernel f(double A[], double B[], long i) {\n\
    \  for (long j = 0; j < 8; j = j + 1) { A[i+j] = B[i+j] * 2.0 + 0.0; }\n\
     }";
  (* The source above spells -0.0 as a negation; a literal whose bits
     alone differ, which [=] and [compare] equate with 0.0, differs
     too. *)
  let k = (List.hd (Frontend.parse_digested digest_base)).Frontend.ast in
  let rec negate_zero (e : Ast.expr) =
    match e.Ast.desc with
    | Ast.Float_lit 0.0 -> { e with Ast.desc = Ast.Float_lit (-0.0) }
    | Ast.Binary (op, x, y) -> { e with Ast.desc = Ast.Binary (op, negate_zero x, negate_zero y) }
    | _ -> e
  in
  let body =
    List.map
      (fun (s : Ast.stmt) ->
        match s.Ast.sdesc with
        | Ast.For fl ->
            let store (s : Ast.stmt) =
              match s.Ast.sdesc with
              | Ast.Store (a, i, e) -> { s with Ast.sdesc = Ast.Store (a, i, negate_zero e) }
              | _ -> s
            in
            { s with Ast.sdesc = Ast.For { fl with Ast.fbody = List.map store fl.Ast.fbody } }
        | _ -> s)
      k.Ast.kbody
  in
  if String.equal (Ast.digest k) (Ast.digest { k with Ast.kbody = body }) then
    Alcotest.fail "a -0.0 literal digests like 0.0"

(* --- Lowering -------------------------------------------------------- *)

let test_lower_motiv () =
  let f = Frontend.compile_one motiv_src in
  Verifier.verify_exn f;
  check_int "one block" 1 (List.length (Func.blocks f));
  let text = Printer.func_to_string f in
  check "loads present" true (has_sub text "load");
  check "stores present" true (has_sub text "store");
  check "adds are integer adds" true (has_sub text "= add");
  check "subs are integer subs" true (has_sub text "= sub");
  (* Per statement: 4 index adds, 4 geps, 3 loads, 2 arithmetic ops and
     a store — the frontend does not fold `i+0`, the pipeline does. *)
  check_int "instruction count" 28 (Func.num_instrs f)

let test_lower_if () =
  let src =
    {|
kernel p(double A[], long i) {
  if (i < 4) { A[i] = 1.0; } else { A[i+1] = 2.0; }
  A[i+2] = 3.0;
}
|}
  in
  let f = Frontend.compile_one src in
  Verifier.verify_exn f;
  check_int "four blocks" 4 (List.length (Func.blocks f));
  match Block.terminator (Func.entry f) with
  | Defs.Cond_br (_, _, _) -> ()
  | _ -> Alcotest.fail "entry should end in a conditional branch"

let test_lower_locals () =
  let src =
    {|
kernel p(double A[], double B[], long i) {
  double t = B[i] * 2.0;
  A[i] = t + t;
}
|}
  in
  let f = Frontend.compile_one src in
  Verifier.verify_exn f;
  (* t is shared: one load, one multiply. *)
  let muls =
    Func.fold_instrs
      (fun n i -> if Instr.binop_kind i = Some Defs.Mul then n + 1 else n)
      0 f
  in
  check_int "one multiply" 1 muls

let test_lower_scalar_float_param () =
  let src = "kernel p(double A[], double s, long i) { A[i] = A[i] * s; }" in
  let f = Frontend.compile_one src in
  Verifier.verify_exn f;
  check "float param becomes f64 arg" true
    (Ty.equal (Func.arg f 1).Defs.arg_ty Ty.f64)

let test_lower_int_literal_coercion () =
  (* `2` in a double context becomes 2.0. *)
  let src = "kernel p(double A[], long i) { A[i] = A[i] * 2; }" in
  let f = Frontend.compile_one src in
  Verifier.verify_exn f;
  let has_float_two =
    Func.fold_instrs
      (fun acc i ->
        acc
        || Array.exists
             (fun v -> Value.equal v (Value.const_float 2.0))
             (Instr.operands i))
      false f
  in
  check "coerced literal" true has_float_two

let test_roundtrip_all_registry_kernels () =
  List.iter
    (fun (k : Snslp_kernels.Registry.t) ->
      let f = Frontend.compile_one k.Snslp_kernels.Registry.source in
      Verifier.verify_exn f)
    Snslp_kernels.Registry.all

(* Words [f] allocates on both heaps.  Blocks over 256 words (a
   printer's buffer and its growth) go straight to the major heap, so
   they are counted as major minus promoted words.  The minor count
   comes from [Gc.minor_words]: the one in [Gc.counters] under-counts
   the words allocated since the last minor collection (OCaml 5.1). *)
let allocated_words f =
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  let r = f () in
  let minor1 = Gc.minor_words () in
  let _, promoted1, major1 = Gc.counters () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

(* Lowering attaches each instruction in O(1) and the printer writes
   straight into one buffer.  On the largest registry kernel both stay
   within a few words per instruction or per output byte (an O(block)
   append per instruction costs thousands of words each), and neither
   costs more per unit there than on a 56-instruction kernel. *)
let test_lowering_and_printing_linear () =
  let measure name =
    let k = Option.get (Snslp_kernels.Registry.find name) in
    let ast =
      match Frontend.parse k.Snslp_kernels.Registry.source with
      | [ a ] -> a
      | _ -> Alcotest.fail "expected one kernel"
    in
    let f, lower_words = allocated_words (fun () -> Lower.lower_kernel ast) in
    let text, print_words = allocated_words (fun () -> Printer.func_to_string f) in
    let n = Func.num_instrs f in
    (n, lower_words /. float_of_int n, print_words /. float_of_int (String.length text))
  in
  let n_small, lower_small, print_small = measure "milc_su3" in
  let n, per_instr, per_byte = measure "milc_mat_vec" in
  check "a large function" true (n > 3000 && n_small < 100);
  if per_instr > 120. then
    Alcotest.failf "lowering allocates %.0f words per instruction (bound 120)" per_instr;
  if per_byte > 1. then
    Alcotest.failf "printing allocates %.2f words per output byte (bound 1)" per_byte;
  if per_instr > 2. *. lower_small then
    Alcotest.failf "lowering: %.0f words per instruction at %d instrs, %.0f at %d" per_instr
      n lower_small n_small;
  if per_byte > 2. *. print_small then
    Alcotest.failf "printing: %.2f words per byte at %d instrs, %.2f at %d" per_byte n
      print_small n_small

let suite =
  [
    ( "lexer",
      [
        Alcotest.test_case "tokens" `Quick test_lexer_tokens;
        Alcotest.test_case "comments" `Quick test_lexer_comments;
        Alcotest.test_case "positions" `Quick test_lexer_positions;
        Alcotest.test_case "operators" `Quick test_lexer_operators;
        Alcotest.test_case "errors" `Quick test_lexer_errors;
        Alcotest.test_case "pinned token streams" `Quick test_lexer_pinned_streams;
        Alcotest.test_case "pinned malformed inputs" `Quick test_lexer_pinned_errors;
        Alcotest.test_case "pinned malformed inputs, parsed" `Quick test_parser_pinned_errors;
      ] );
    ( "parser",
      [
        Alcotest.test_case "kernel structure" `Quick test_parse_kernel;
        Alcotest.test_case "precedence" `Quick test_parse_precedence;
        Alcotest.test_case "associativity" `Quick test_parse_associativity;
        Alcotest.test_case "unary minus" `Quick test_parse_unary_minus;
        Alcotest.test_case "if/else" `Quick test_parse_if_else;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
      ] );
    ( "typecheck",
      [ Alcotest.test_case "type errors" `Quick test_type_errors ] );
    ( "kernel-digest",
      [
        Alcotest.test_case "blind to layout and name" `Quick test_digest_ignores_layout;
        Alcotest.test_case "sees what lowers" `Quick test_digest_sees_what_lowers;
      ] );
    ( "lowering",
      [
        Alcotest.test_case "motivating example" `Quick test_lower_motiv;
        Alcotest.test_case "if lowering" `Quick test_lower_if;
        Alcotest.test_case "local sharing" `Quick test_lower_locals;
        Alcotest.test_case "scalar float param" `Quick test_lower_scalar_float_param;
        Alcotest.test_case "int literal coercion" `Quick test_lower_int_literal_coercion;
        Alcotest.test_case "all registry kernels lower" `Quick
          test_roundtrip_all_registry_kernels;
        Alcotest.test_case "lowering and printing stay linear" `Quick
          test_lowering_and_printing_linear;
      ] );
  ]
