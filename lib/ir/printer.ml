(* Textual rendering of functions, in an LLVM-flavoured syntax:

     func @motiv1(f64* %A, f64* %B, i64 %i) {
     entry:
       %0 = gep f64* %B, %i
       %1 = load f64 %0
       ...
       ret
     }

   Everything renders into one [Buffer]; the [Fmt] printers print the
   finished string.  The printing sits on every cache key and every
   service reply, so it stays off [Format]'s per-token machinery. *)

open Defs

let arg_to_string (a : arg) = Ty.to_string a.arg_ty ^ " %" ^ a.arg_name

let terminator_to_string = function
  | Ret -> "ret"
  | Br b -> "br %" ^ b.bname
  | Cond_br (c, b1, b2) -> Printf.sprintf "br %s, %%%s, %%%s" (Value.name c) b1.bname b2.bname
  | Unterminated -> "<unterminated>"

let add_block ?pred_name buf (b : block) =
  Buffer.add_string buf b.bname;
  Buffer.add_string buf ":\n";
  let add_indented s =
    Buffer.add_string buf "  ";
    Buffer.add_string buf s;
    Buffer.add_char buf '\n'
  in
  List.iter (fun i -> add_indented (Instr.to_string ?pred_name i)) b.instrs;
  add_indented (terminator_to_string b.term)

let pred_name_of (f : func) =
  let names = Hashtbl.create 7 in
  List.iter (fun b -> Hashtbl.replace names b.bid b.bname) f.blocks;
  fun bid ->
    match Hashtbl.find_opt names bid with
    | Some n -> n
    | None -> Instr.fallback_pred_name bid

let func_to_string (f : func) =
  let buf = Buffer.create 4096 in
  let args = String.concat ", " (Array.to_list (Array.map arg_to_string f.fargs)) in
  Buffer.add_string buf (Printf.sprintf "func @%s(%s) {\n" f.fname args);
  List.iter (add_block ~pred_name:(pred_name_of f) buf) f.blocks;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* A standalone block cannot resolve its phis' predecessor names (they
   live elsewhere in the function), so it prints the "b<id>" fallback;
   {!func_to_string} supplies the real names, which is what makes the
   printed function round-trippable through {!Ir_parser}. *)
let block_to_string (b : block) =
  let buf = Buffer.create 1024 in
  add_block buf b;
  Buffer.contents buf

let pp_arg ppf a = Fmt.string ppf (arg_to_string a)
let pp_terminator ppf t = Fmt.string ppf (terminator_to_string t)
let pp_block ppf b = Fmt.string ppf (block_to_string b)
let pp_func ppf f = Fmt.string ppf (func_to_string f)
