(* Maintenance of the persistent def-use chains ([Defs.instr.iuses]).

   Every operand slot holding an instruction result is mirrored by
   exactly one [use] record on the defining instruction's chain.  The
   record belongs to the slot ([user.islots.(n)]), so unlinking it is
   O(1) and needs no search.  A chain is an unordered bag (newest
   registration first); callers that need block order must sort or
   scan.  Records are keyed by physical identity of the user, so
   clones (which reuse ids) never alias across functions. *)

open Defs

(* The record of every slot that has never held an instruction (a
   slot gets its own record the first time it does, so constant,
   argument and undef operands cost none), and the end of every chain.
   Never linked or written. *)
let rec unused = { uuser = nobody; uslot = -1; uprev = unused; unext = unused }

and nobody =
  {
    iid = -1;
    op = Load;
    ty = Ty.i32;
    ops = [||];
    iname = "";
    iblock = None;
    iuses = unused;
    islots = [||];
    iprev = None;
    inext = None;
    iorder = 0;
  }

let link (d : instr) (u : use) =
  u.uprev <- unused;
  u.unext <- d.iuses;
  if d.iuses != unused then d.iuses.uprev <- u;
  d.iuses <- u

let unlink (d : instr) (u : use) =
  if u.uprev != unused then u.uprev.unext <- u.unext else d.iuses <- u.unext;
  if u.unext != unused then u.unext.uprev <- u.uprev;
  u.uprev <- unused;
  u.unext <- unused

let register ~(user : instr) n =
  match user.ops.(n) with
  | Instr d ->
      let u = user.islots.(n) in
      let u =
        if u != unused then u
        else begin
          let u = { uuser = user; uslot = n; uprev = unused; unext = unused } in
          user.islots.(n) <- u;
          u
        end
      in
      link d u
  | Const _ | Undef _ | Arg _ -> ()

let register_all (user : instr) =
  user.islots <- Array.make (Array.length user.ops) unused;
  Array.iteri (fun n _ -> register ~user n) user.ops

let unregister ~(user : instr) n =
  match user.ops.(n) with
  | Instr d -> unlink d user.islots.(n)
  | Const _ | Undef _ | Arg _ -> ()

let unregister_all (user : instr) = Array.iteri (fun n _ -> unregister ~user n) user.ops

(* The chain is read newest first; [f] may unlink the entry it is
   given (the successor is read before the call). *)
let iter f (d : instr) =
  let rec go u =
    if u != unused then begin
      let rest = u.unext in
      f u.uuser u.uslot;
      go rest
    end
  in
  go d.iuses

let fold f acc (d : instr) =
  let rec go acc u = if u == unused then acc else go (f acc u.uuser u.uslot) u.unext in
  go acc d.iuses

let exists p (d : instr) =
  let rec go u = u != unused && (p u.uuser u.uslot || go u.unext) in
  go d.iuses
