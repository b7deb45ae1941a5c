(* Core recursive IR definitions.

   Every structural type of the IR lives here because OCaml requires
   mutually recursive types to share a definition site; the sibling
   modules ([Value], [Instr], [Block], [Func], ...) provide the
   operations.

   The IR is a mutable graph in the LLVM style: instructions reference
   their operands directly as [value]s (the use-def chain), blocks own
   an intrusive doubly-linked instruction list with order keys (as
   LLVM's instruction lists and order numbers), and functions own
   blocks.  The only
   join-point mechanism is [Phi], introduced for loop headers: its
   payload is the array of predecessor block ids, positionally aligned
   with the operand array (operand [k] is the incoming value when
   control arrived from block [payload.(k)]).  Straight-line and
   if-converted code never needs one. *)

type binop = Add | Sub | Mul | Div

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type opcode =
  | Binop of binop
      (* Scalar or vector arithmetic; int or float according to the
         instruction type. *)
  | Alt_binop of binop array
      (* Vector-only: per-lane opcode, e.g. [| Sub; Add |] is the SSE3
         addsub pattern.  Length equals the lane count. *)
  | Load (* [| addr |] *)
  | Store (* [| value; addr |] *)
  | Gep
      (* [| base; index |]: address of element [index] of the array
         pointed to by [base]; index is in elements, not bytes. *)
  | Insert (* [| vec; scalar; lane-const |] *)
  | Extract (* [| vec; lane-const |] *)
  | Shuffle of int array
      (* [| v1; v2 |]; mask indices pick lanes from the concatenation
         of [v1] and [v2], LLVM-style. *)
  | Icmp of cmp
  | Fcmp of cmp
  | Select (* [| cond; if-true; if-false |]*)
  | Phi of int array
      (* Join point, block-head only.  [Phi preds] has one operand per
         predecessor block id in [preds]; the instruction evaluates to
         the operand whose predecessor the executing edge came from.
         Payload arrays are never mutated in place (clones share them);
         passes that retarget a phi assign a fresh [Phi [|...|]]. *)

type value =
  | Const of { ty : Ty.t; lit : Lit.t }
  | Undef of Ty.t
  | Arg of arg
  | Instr of instr

and arg = { arg_name : string; arg_ty : Ty.t; arg_pos : int }

and instr = {
  iid : int; (* unique within the owning function *)
  mutable op : opcode;
  mutable ty : Ty.t; (* result type; stores produce [Ty.i32] dummy-void *)
  mutable ops : value array;
  mutable iname : string;
  mutable iblock : block option;
  mutable iuses : use;
      (* head of the persistent def-use chain ([Use.unused] when
         empty): one [use] per (user, operand index) slot currently
         holding this instruction's result, newest first, doubly
         linked so a slot unlinks in O(1).  Maintained by [Use] through the creation/mutation
         chokepoints ([Func.fresh_instr], [Func.clone],
         [Instr.set_operand], [Block.discard_if], [Func.erase_instr]);
         may include users detached from any block — queries filter
         on [iblock]. *)
  mutable islots : use array;
      (* [islots.(n)] is the use record of operand slot [n]; it sits
         on the chain of [ops.(n)] whenever that is an instruction
         (a slot that never held one shares a placeholder) *)
  mutable iprev : instr option; (* neighbours in [iblock]'s list *)
  mutable inext : instr option;
  mutable iorder : int;
      (* order key: strictly increasing along the block, gapped so an
         insertion rarely renumbers (see [Block]); meaningless while
         detached *)
}

(* Chains end in the placeholder [Use.unused] rather than an option,
   so linking a use allocates nothing. *)
and use = {
  uuser : instr;
  uslot : int;
  mutable uprev : use; (* newer entry of the same chain *)
  mutable unext : use; (* older entry *)
}

(* A block's instructions form an intrusive doubly-linked list through
   [iprev]/[inext], from [bhead] to [btail], in execution order. *)
and block = {
  bid : int;
  bname : string;
  mutable bhead : instr option;
  mutable btail : instr option;
  mutable blen : int;
  mutable bsome : block option;
      (* [Some] this block, shared by every [iblock] pointing here *)
  mutable bstamp : int;
      (* edit stamp: bumped whenever an instruction is linked into or
         unlinked from this block, or an attached one's operand is
         replaced (see [Block.stamp]) *)
  mutable term : terminator;
}

and terminator =
  | Ret
  | Br of block
  | Cond_br of value * block * block
  | Unterminated

and func = {
  fname : string;
  fargs : arg array;
  mutable blocks : block list; (* entry first *)
  mutable next_iid : int;
  mutable next_bid : int;
}

let binop_to_string = function Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div"

let cmp_to_string = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

(* [inverse_of op] is the inverse element's operator, if [op] is the
   commutative-associative operator of an abelian group on which the
   Super-Node is defined: subtraction for addition, division for
   multiplication. *)
let inverse_of = function Add -> Some Sub | Mul -> Some Div | Sub | Div -> None

(* [direct_of op] is the inverse map of {!inverse_of}. *)
let direct_of = function Sub -> Some Add | Div -> Some Mul | Add | Mul -> None

let is_commutative = function Add | Mul -> true | Sub | Div -> false
let is_inverse_op = function Sub | Div -> true | Add | Mul -> false
