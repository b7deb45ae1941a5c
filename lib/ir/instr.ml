(* Operations over IR instructions. *)

open Defs

type t = instr

let equal (a : t) (b : t) = a.iid == b.iid
let compare (a : t) (b : t) = Int.compare a.iid b.iid
let hash (a : t) = a.iid

let id (i : t) = i.iid
let opcode (i : t) = i.op
let ty (i : t) = i.ty
let name (i : t) = i.iname
let set_name (i : t) n = i.iname <- n
let block (i : t) = i.iblock

let operands (i : t) = i.ops
let operand (i : t) n = i.ops.(n)
let num_operands (i : t) = Array.length i.ops
let set_operand (i : t) n v =
  Use.unregister ~user:i n;
  i.ops.(n) <- v;
  Use.register ~user:i n;
  match i.iblock with Some b -> b.bstamp <- b.bstamp + 1 | None -> ()

let value (i : t) = Instr i

let is_binop (i : t) = match i.op with Binop _ -> true | _ -> false

let binop_kind (i : t) = match i.op with Binop b -> Some b | _ -> None

let is_load (i : t) = match i.op with Load -> true | _ -> false
let is_store (i : t) = match i.op with Store -> true | _ -> false
let is_phi (i : t) = match i.op with Phi _ -> true | _ -> false

let is_memory (i : t) = match i.op with Load | Store -> true | _ -> false

(* Whether the instruction writes memory (i.e., must keep its relative
   order with may-aliasing memory operations). *)
let writes_memory (i : t) = is_store i

let has_result (i : t) = not (is_store i)

let same_opcode (a : t) (b : t) =
  match (a.op, b.op) with
  | Binop x, Binop y -> x = y
  | Alt_binop x, Alt_binop y -> x = y
  | Load, Load | Store, Store | Gep, Gep | Insert, Insert | Extract, Extract -> true
  | Shuffle x, Shuffle y -> x = y
  | Icmp x, Icmp y | Fcmp x, Fcmp y -> x = y
  | Select, Select -> true
  | Phi x, Phi y -> x = y
  | ( ( Binop _ | Alt_binop _ | Load | Store | Gep | Insert | Extract | Shuffle _
      | Icmp _ | Fcmp _ | Select | Phi _ ),
      _ ) ->
      false

(* Phi mnemonics name their predecessor blocks ("phi.entry.latch"), so
   rendering needs a block-id-to-name map; the context-free fallback
   ("phi.b0.b3") keeps debug output working when no function is at
   hand.  {!Printer.pp_func} supplies the real names, and the textual
   round-trip relies on block names never containing '.'. *)
let fallback_pred_name bid = "b" ^ string_of_int bid

(* The instruction syntax, written straight into a buffer: the
   printer (and so the structural cache key) and every diagnostic
   render through here. *)
let bprint_mnemonic ?(pred_name = fallback_pred_name) buf (i : t) =
  let add = Buffer.add_string buf in
  let dotted f a =
    Array.iteri
      (fun n x ->
        if n > 0 then Buffer.add_char buf '.';
        add (f x))
      a
  in
  match i.op with
  | Binop b ->
      if Ty.is_float i.ty || (Ty.is_vector i.ty && Ty.scalar_is_float (Ty.elem i.ty)) then
        Buffer.add_char buf 'f';
      add (binop_to_string b)
  | Alt_binop ops ->
      add "alt.";
      dotted binop_to_string ops
  | Load -> add (if Ty.is_vector i.ty then "vload" else "load")
  | Store -> add (if Ty.is_vector (Value.ty i.ops.(0)) then "vstore" else "store")
  | Gep -> add "gep"
  | Insert -> add "insert"
  | Extract -> add "extract"
  | Shuffle mask ->
      add "shuffle.";
      dotted string_of_int mask
  | Icmp c ->
      add "icmp.";
      add (cmp_to_string c)
  | Fcmp c ->
      add "fcmp.";
      add (cmp_to_string c)
  | Select -> add "select"
  | Phi preds ->
      add "phi.";
      dotted pred_name preds

(* "%5 = fadd f64 %1, %2", or "store %3, %4" for a store. *)
let bprint ?pred_name buf (i : t) =
  if has_result i then begin
    Buffer.add_char buf '%';
    Buffer.add_string buf i.iname;
    Buffer.add_string buf " = ";
    bprint_mnemonic ?pred_name buf i;
    Buffer.add_char buf ' ';
    Ty.bprint buf i.ty
  end
  else bprint_mnemonic ?pred_name buf i;
  Buffer.add_char buf ' ';
  for n = 0 to Array.length i.ops - 1 do
    if n > 0 then Buffer.add_string buf ", ";
    Value.bprint_name buf i.ops.(n)
  done

let render print =
  let buf = Buffer.create 64 in
  print buf;
  Buffer.contents buf

let opcode_mnemonic ?pred_name i = render (fun buf -> bprint_mnemonic ?pred_name buf i)

(* Structural description used by tests and debugging output. *)
let to_string ?pred_name i = render (fun buf -> bprint ?pred_name buf i)

let pp ppf i = Fmt.string ppf (to_string i)
