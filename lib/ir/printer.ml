(* Textual rendering of functions, in an LLVM-flavoured syntax:

     func @motiv1(f64* %A, f64* %B, i64 %i) {
     entry:
       %0 = gep f64* %B, %i
       %1 = load f64 %0
       ...
       ret
     }

   Everything renders into one [Buffer], instructions included
   ({!Instr.bprint}), with no intermediate string per line; the [Fmt]
   printers print the finished string.  The printing sits on every
   cache key and every service reply, so it stays off [Format]'s
   per-token machinery. *)

open Defs

let bprint_arg buf (a : arg) =
  Ty.bprint buf a.arg_ty;
  Buffer.add_string buf " %";
  Buffer.add_string buf a.arg_name

let bprint_terminator buf term =
  let add = Buffer.add_string buf in
  match term with
  | Ret -> add "ret"
  | Br b ->
      add "br %";
      add b.bname
  | Cond_br (c, b1, b2) ->
      add "br ";
      Value.bprint_name buf c;
      add ", %";
      add b1.bname;
      add ", %";
      add b2.bname
  | Unterminated -> add "<unterminated>"

let add_block ~pred_name buf (b : block) =
  Buffer.add_string buf b.bname;
  Buffer.add_string buf ":\n";
  Block.iter
    (fun i ->
      Buffer.add_string buf "  ";
      Instr.bprint ~pred_name buf i;
      Buffer.add_char buf '\n')
    b;
  Buffer.add_string buf "  ";
  bprint_terminator buf b.term;
  Buffer.add_char buf '\n'

let pred_name_of (f : func) =
  let names = Hashtbl.create 7 in
  List.iter (fun b -> Hashtbl.replace names b.bid b.bname) f.blocks;
  fun bid ->
    match Hashtbl.find_opt names bid with
    | Some n -> n
    | None -> Instr.fallback_pred_name bid

let render size print =
  let buf = Buffer.create size in
  print buf;
  Buffer.contents buf

let func_to_string (f : func) =
  render 4096 (fun buf ->
      Buffer.add_string buf "func @";
      Buffer.add_string buf f.fname;
      Buffer.add_char buf '(';
      Array.iteri
        (fun n a ->
          if n > 0 then Buffer.add_string buf ", ";
          bprint_arg buf a)
        f.fargs;
      Buffer.add_string buf ") {\n";
      List.iter (add_block ~pred_name:(pred_name_of f) buf) f.blocks;
      Buffer.add_string buf "}\n")

let pp_terminator ppf t = Fmt.string ppf (render 16 (fun buf -> bprint_terminator buf t))
let pp_func ppf f = Fmt.string ppf (func_to_string f)
