(* Seeded random KernelC kernels aimed at memory order.

   {!Gen} emits each store group's lanes back to back, so no access to
   a group's cells ever sits between two of its lanes.  These kernels
   build exactly that: a few statements over three arrays, mostly
   [a], at offsets 0..3 from one index, so cells are written twice and
   lanes read their neighbours' cells; if/else arms (if-converted) and
   short counted loops (fully unrolled into lane-interleaved groups)
   multiply the orders.

   Every constant is dyadic and trees are at most two deep, so values
   stay small and exact enough for the oracle's tolerance.  The same
   seed always gives the same text. *)

let arrays = [| "a"; "a"; "a"; "a"; "b"; "c" |]
let constants = [| "0.5"; "1.0"; "1.5"; "2.0"; "0.25" |]
let operators = [| "+"; "-"; "*" |]
let comparisons = [| "<"; ">"; "<="; ">="; "=="; "!=" |]

let pick rand a = a.(Random.State.int rand (Array.length a))

(* A cell at offset 0..3 from the index, or from the index plus the
   loop counter inside a loop. *)
let cell rand ~in_loop =
  Printf.sprintf "%s[i+%s%d]" (pick rand arrays)
    (if in_loop then "j+" else "")
    (Random.State.int rand 4)

let leaf rand ~in_loop =
  if Random.State.int rand 3 = 0 then pick rand constants else cell rand ~in_loop

(* A load, a constant, or a [+ - *] tree of depth at most [depth]
   over those. *)
let rec value rand ~in_loop depth =
  if depth = 0 || Random.State.int rand 3 = 0 then leaf rand ~in_loop
  else
    Printf.sprintf "(%s %s %s)"
      (value rand ~in_loop (depth - 1))
      (pick rand operators)
      (value rand ~in_loop (depth - 1))

(* One statement; [nest] counts the enclosing ifs and loops (at most
   two), and loops do not nest in loops, which would need a second
   counter. *)
let rec statement rand buf ~nest ~in_loop =
  let r = Random.State.int rand 10 in
  if nest < 2 && r < 2 then begin
    let rhs = if Random.State.bool rand then pick rand constants else cell rand ~in_loop in
    Printf.bprintf buf "if (%s %s %s) { " (cell rand ~in_loop) (pick rand comparisons) rhs;
    arm rand buf ~nest:(nest + 1) ~in_loop;
    if Random.State.int rand 10 < 7 then begin
      Buffer.add_string buf "} else { ";
      arm rand buf ~nest:(nest + 1) ~in_loop
    end;
    Buffer.add_string buf "} "
  end
  else if nest < 2 && (not in_loop) && r < 4 then begin
    Printf.bprintf buf "for (long j = 0; j < %d; j = j + 1) { " (2 + Random.State.int rand 3);
    arm rand buf ~nest:(nest + 1) ~in_loop:true;
    Buffer.add_string buf "} "
  end
  else Printf.bprintf buf "%s = %s; " (cell rand ~in_loop) (value rand ~in_loop 2)

and arm rand buf ~nest ~in_loop =
  for _ = 1 to 1 + Random.State.int rand 3 do
    statement rand buf ~nest ~in_loop
  done

let generate ~seed =
  let rand = Random.State.make [| seed; 0x6b63 |] in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "kernel r(double a[], double b[], double c[], long i) { ";
  for _ = 1 to 3 + Random.State.int rand 4 do
    statement rand buf ~nest:0 ~in_loop:false
  done;
  Buffer.add_string buf "}";
  Buffer.contents buf
