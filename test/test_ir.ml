(* Unit tests for the IR substrate: types, values, builder, printer,
   verifier, cloning, dominance. *)

open Snslp_ir

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* A tiny function: A[i] = B[i] + C[i]. *)
let sample_func () =
  let f =
    Func.create ~name:"sample"
      ~args:
        [
          ("A", Ty.ptr Ty.F64);
          ("B", Ty.ptr Ty.F64);
          ("C", Ty.ptr Ty.F64);
          ("i", Ty.i64);
        ]
  in
  let entry = Func.add_block f "entry" in
  let b = Builder.create f ~at:entry in
  let arg n = Defs.Arg (Func.arg f n) in
  let gb = Builder.gep b (arg 1) (arg 3) in
  let gc = Builder.gep b (arg 2) (arg 3) in
  let lb = Builder.load b (Instr.value gb) in
  let lc = Builder.load b (Instr.value gc) in
  let sum = Builder.add b (Instr.value lb) (Instr.value lc) in
  let ga = Builder.gep b (arg 0) (arg 3) in
  let _st = Builder.store b (Instr.value sum) (Instr.value ga) in
  Builder.ret b;
  f

let test_ty_basics () =
  check "int" true (Ty.is_int Ty.i64);
  check "not float" false (Ty.is_float Ty.i64);
  check "float" true (Ty.is_float Ty.f32);
  check_int "lanes of scalar" 1 (Ty.lanes Ty.f64);
  check_int "lanes of vector" 4 (Ty.lanes (Ty.vector ~lanes:4 Ty.F32));
  check_int "bits of vector" 128 (Ty.bits (Ty.vector ~lanes:2 Ty.F64));
  check_str "vector syntax" "<2 x f64>" (Ty.to_string (Ty.vector ~lanes:2 Ty.F64));
  check_str "pointer syntax" "f64*" (Ty.to_string (Ty.ptr Ty.F64));
  check "vector eq" true (Ty.equal (Ty.vector ~lanes:2 Ty.F64) (Ty.vector ~lanes:2 Ty.F64));
  check "vector neq lanes" false
    (Ty.equal (Ty.vector ~lanes:2 Ty.F64) (Ty.vector ~lanes:4 Ty.F64));
  Alcotest.check_raises "lanes < 2 rejected" (Invalid_argument "Ty.vector: lanes must be >= 2")
    (fun () -> ignore (Ty.vector ~lanes:1 Ty.F64))

let test_lit () =
  check "int lit eq" true (Lit.equal (Lit.int 42) (Lit.int64 42L));
  check "float lit eq" true (Lit.equal (Lit.float 1.5) (Lit.float 1.5));
  check "nan lit eq (bitwise)" true (Lit.equal (Lit.float nan) (Lit.float nan));
  check "int/float differ" false (Lit.equal (Lit.int 1) (Lit.float 1.0));
  check "matches int ty" true (Lit.matches_ty (Lit.int 1) Ty.i64);
  check "int lit does not match float ty" false (Lit.matches_ty (Lit.int 1) Ty.f64)

let test_value () =
  let c1 = Value.const_int 7 in
  let c2 = Value.const_int 7 in
  check "structural const equality" true (Value.equal c1 c2);
  check "different consts" false (Value.equal c1 (Value.const_int 8));
  check_str "const name" "7" (Value.name c1);
  Alcotest.check_raises "const_int rejects float ty"
    (Invalid_argument "Value.const_int: not an int type") (fun () ->
      ignore (Value.const_int ~ty:Ty.f64 1))

let test_builder_and_printer () =
  let f = sample_func () in
  Verifier.verify_exn f;
  let text = Printer.func_to_string f in
  check "has header" true
    (String.length text > 0
    && String.sub text 0 12 = "func @sample");
  let has_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check "prints fadd" true (has_sub text "fadd");
  check "prints load" true (has_sub text "load");
  check "prints store" true (has_sub text "store");
  check "prints ret" true (has_sub text "ret")

let test_builder_type_errors () =
  let f = Func.create ~name:"t" ~args:[ ("x", Ty.f64); ("n", Ty.i64) ] in
  let entry = Func.add_block f "entry" in
  let b = Builder.create f ~at:entry in
  let x = Defs.Arg (Func.arg f 0) and n = Defs.Arg (Func.arg f 1) in
  Alcotest.check_raises "mixed binop types"
    (Invalid_argument "Builder.binop: operand types differ") (fun () ->
      ignore (Builder.add b x n));
  Alcotest.check_raises "int division rejected"
    (Invalid_argument "Builder.binop: integer division is not part of the IR") (fun () ->
      ignore (Builder.div b n n))

let test_uses_and_rauw () =
  let f = sample_func () in
  let entry = Func.entry f in
  let instrs = Block.instrs entry in
  let lb = List.nth instrs 2 in
  let sum = List.nth instrs 4 in
  check_int "load has one use" 1 (List.length (Func.uses_of f (Instr.value lb)));
  check "sum uses load" true (Value.equal (Instr.operand sum 0) (Instr.value lb));
  (* Replace the load with a constant and check rewiring. *)
  Func.replace_all_uses f ~old_v:(Instr.value lb) ~new_v:(Value.const_float 1.0);
  check_int "load now unused" 0 (List.length (Func.uses_of f (Instr.value lb)));
  check "sum rewired" true (Value.equal (Instr.operand sum 0) (Value.const_float 1.0));
  check "use-lists consistent after replace" true
    (Func.check_use_lists f = Ok ());
  Func.erase_instr f lb;
  check_int "erased from block" 6 (List.length (Block.instrs entry));
  check "use-lists consistent after erase" true (Func.check_use_lists f = Ok ())

let test_erase_with_uses_fails () =
  let f = sample_func () in
  let entry = Func.entry f in
  let lb = List.nth (Block.instrs entry) 2 in
  check "erase of used instr raises" true
    (try
       Func.erase_instr f lb;
       false
     with Invalid_argument _ -> true)

let test_clone_independent () =
  let f = sample_func () in
  let g = Func.clone f in
  check_int "same instr count" (Func.num_instrs f) (Func.num_instrs g);
  check_str "same text" (Printer.func_to_string f) (Printer.func_to_string g);
  (* Mutating the clone leaves the original alone. *)
  let ge = Func.entry g in
  let first = List.hd (Block.instrs ge) in
  Func.replace_all_uses g ~old_v:(Instr.value first) ~new_v:(Defs.Arg (Func.arg g 1));
  Func.erase_instr g first;
  check "original unchanged" true (Func.num_instrs f = Func.num_instrs g + 1);
  (* Clones carry their own use-lists: mutating one must leave both
     self-consistent. *)
  check "clone use-lists consistent" true (Func.check_use_lists g = Ok ());
  check "original use-lists consistent" true (Func.check_use_lists f = Ok ())

let test_verifier_catches_bad_ir () =
  let f = Func.create ~name:"bad" ~args:[ ("x", Ty.f64) ] in
  let entry = Func.add_block f "entry" in
  let x = Defs.Arg (Func.arg f 0) in
  (* Hand-build an ill-typed instruction, bypassing the builder. *)
  let i = Func.fresh_instr f (Defs.Binop Defs.Add) Ty.i64 [| x; x |] in
  Block.append entry i;
  Block.set_terminator entry Defs.Ret;
  check "verifier reports" true (Verifier.verify f <> []);
  (* Unterminated blocks are reported too. *)
  let g = Func.create ~name:"unterm" ~args:[] in
  let _ = Func.add_block g "entry" in
  check "unterminated reported" true (Verifier.verify g <> [])

let test_verifier_use_before_def () =
  let f = Func.create ~name:"ubd" ~args:[ ("x", Ty.f64) ] in
  let entry = Func.add_block f "entry" in
  let x = Defs.Arg (Func.arg f 0) in
  let a = Func.fresh_instr f (Defs.Binop Defs.Add) Ty.f64 [| x; x |] in
  let b = Func.fresh_instr f (Defs.Binop Defs.Mul) Ty.f64 [| Defs.Instr a; x |] in
  (* b placed before a. *)
  Block.append entry b;
  Block.append entry a;
  Block.set_terminator entry Defs.Ret;
  check "use-before-def reported" true (Verifier.verify f <> [])

let test_dominance () =
  let f = Func.create ~name:"dom" ~args:[ ("c", Ty.i64) ] in
  let entry = Func.add_block f "entry" in
  let then_b = Func.add_block f "then" in
  let join = Func.add_block f "join" in
  Block.set_terminator entry (Defs.Cond_br (Defs.Arg (Func.arg f 0), then_b, join));
  Block.set_terminator then_b (Defs.Br join);
  Block.set_terminator join Defs.Ret;
  let dom = Dominance.compute f in
  check "entry dominates all" true
    (Dominance.dominates dom entry then_b && Dominance.dominates dom entry join);
  check "then does not dominate join" false (Dominance.dominates dom then_b join);
  check "self-domination" true (Dominance.dominates dom join join)

let test_block_ops () =
  let f = sample_func () in
  let entry = Func.entry f in
  let n = Block.length entry in
  check_int "length" 7 n;
  let first = List.hd (Block.instrs entry) in
  let fresh = Func.fresh_instr f (Defs.Binop Defs.Add) Ty.i64
      [| Value.const_int 1; Value.const_int 2 |] in
  Block.insert_before entry ~anchor:first fresh;
  check "inserted at head" true (Instr.equal (List.hd (Block.instrs entry)) fresh);
  Block.remove entry fresh;
  check_int "removed" n (Block.length entry);
  (* Reorder must be a permutation. *)
  check "reorder rejects non-permutation" true
    (try
       Block.reorder entry [];
       false
     with Invalid_argument _ -> true);
  Block.reorder entry (List.rev (Block.instrs entry));
  check_int "reorder applied" n (Block.length entry)

(* A block holding [a; c] must not accept [a; a]: the lengths match and
   every listed instruction is a member, but [c] is missing and [a] is
   listed twice. *)
let test_reorder_rejects_repeats () =
  let f = Func.create ~name:"perm" ~args:[] in
  let entry = Func.add_block f "entry" in
  let fresh () =
    let i =
      Func.fresh_instr f (Defs.Binop Defs.Add) Ty.i64 [| Value.const_int 1; Value.const_int 2 |]
    in
    Block.append entry i;
    i
  in
  let a = fresh () in
  let c = fresh () in
  check "repeat rejected" true
    (try
       Block.reorder entry [ a; a ];
       false
     with Invalid_argument _ -> true);
  check "block untouched" true
    (List.map Instr.id (Block.instrs entry) = [ Instr.id a; Instr.id c ]);
  check "relink rejects repeats" true
    (try
       Block.relink entry [ c; c ];
       false
     with Invalid_argument _ -> true);
  Block.reorder entry [ c; a ];
  check "permutation applied" true
    (List.map Instr.id (Block.instrs entry) = [ Instr.id c; Instr.id a ])

(* Phis must head their block.  A non-phi placed before a phi with
   [Block.insert_before] (as unrolling places instructions at a block's
   head) leaves [x; phi1]: the last instruction is a phi, yet a second
   phi must still be refused. *)
let test_phi_after_non_phi () =
  let f = Func.create ~name:"phis" ~args:[ ("x", Ty.i64) ] in
  let entry = Func.add_block f "entry" in
  let b = Builder.create f ~at:entry in
  let x = Defs.Arg (Func.arg f 0) in
  let phi1 = Builder.phi b ~preds:[| entry |] [| x |] in
  let add = Func.fresh_instr f (Defs.Binop Defs.Add) Ty.i64 [| x; x |] in
  Block.insert_before entry ~anchor:phi1 add;
  Alcotest.check_raises "phi after a non-phi"
    (Invalid_argument "Builder.phi: must precede every non-phi in its block") (fun () ->
      ignore (Builder.phi b ~preds:[| entry |] [| x |]))

(* The intrusive list against a list model: random appends, inserts,
   removals and relinks, with bursts of insertions before one anchor
   that exhaust the key gaps and force renumbering.  After every step
   the block lists the model's instructions, its length and links
   agree, and order keys increase strictly. *)
let test_list_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"block list matches a list model"
       QCheck.(list_of_size Gen.(int_range 20 120) (pair (int_bound 5) (int_bound 1_000_000)))
       (fun ops ->
         let f = Func.create ~name:"model" ~args:[] in
         let b = Func.add_block f "entry" in
         let fresh () =
           Func.fresh_instr f (Defs.Binop Defs.Add) Ty.i64 [| Value.const_int 1; Value.const_int 2 |]
         in
         let model = ref [] in
         let pick r = List.nth !model (r mod List.length !model) in
         let renumbered = ref false and burst = ref false in
         let ok = ref true in
         let expect c = if not c then ok := false in
         let check_block () =
           let got = Block.instrs b in
           expect (List.map Instr.id got = List.map Instr.id !model);
           expect (Block.length b = List.length !model);
           expect
             (match (Block.first b, !model) with
             | None, [] -> true
             | Some i, x :: _ -> i == x
             | _ -> false);
           let rec keys prev = function
             | [] -> ()
             | (i : Defs.instr) :: rest ->
                 expect (Block.mem b i);
                 (match prev with
                 | Some (p : Defs.instr) ->
                     expect (p.Defs.iorder < i.Defs.iorder && Block.precedes p i);
                     expect (match i.Defs.iprev with Some q -> q == p | None -> false)
                 | None -> expect (i.Defs.iprev = None));
                 keys (Some i) rest
           in
           keys None got
         in
         let insert_before anchor i =
           let rec go = function
             | [] -> []
             | x :: rest when x == anchor -> i :: x :: rest
             | x :: rest -> x :: go rest
           in
           let keys_before = List.map (fun (x : Defs.instr) -> x.Defs.iorder) !model in
           Block.insert_before b ~anchor i;
           if List.map (fun (x : Defs.instr) -> x.Defs.iorder) (List.filter (fun x -> x != i) (Block.instrs b))
              <> keys_before
           then renumbered := true;
           model := go !model
         in
         List.iter
           (fun (op, r) ->
             (match op with
             | 0 ->
                 let i = fresh () in
                 Block.append b i;
                 model := !model @ [ i ]
             | 1 when !model <> [] -> insert_before (pick r) (fresh ())
             | 2 when !model <> [] ->
                 let x = pick r in
                 Block.remove b x;
                 expect (not (Block.mem b x));
                 model := List.filter (fun y -> y != x) !model
             | 3 when !model <> [] ->
                 (* Move about a third of the members before one that
                    stays, or to the end. *)
                 let moved, stay =
                   List.partition (fun (x : Defs.instr) -> (x.Defs.iid + r) mod 3 = 0) !model
                 in
                 let before =
                   match stay with [] -> None | _ -> Some (List.nth stay (r mod List.length stay))
                 in
                 Block.relink b ?before moved;
                 model :=
                   (match before with
                   | None -> stay @ moved
                   | Some a -> List.concat_map (fun x -> if x == a then moved @ [ x ] else [ x ]) stay)
             | 4 when !model <> [] ->
                 burst := true;
                 let anchor = pick r in
                 for _ = 1 to 40 do
                   insert_before anchor (fresh ())
                 done
             | _ ->
                 Block.reorder b (List.rev (Block.instrs b));
                 model := List.rev !model);
             check_block ())
           ops;
         !ok && (!renumbered || not !burst)))

(* Insertion before the last instruction is O(1) amortised: 100,000 of
   them, then the removal of each, stay far below quadratic time. *)
let test_insert_guard () =
  let f = Func.create ~name:"guard" ~args:[] in
  let entry = Func.add_block f "entry" in
  let fresh () =
    Func.fresh_instr f (Defs.Binop Defs.Add) Ty.i64 [| Value.const_int 1; Value.const_int 2 |]
  in
  let last = fresh () in
  Block.append entry (fresh ());
  Block.append entry last;
  let t0 = Unix.gettimeofday () in
  let inserted = Array.init 100_000 (fun _ ->
      let i = fresh () in
      Block.insert_before entry ~anchor:last i;
      i)
  in
  Array.iter (Block.remove entry) inserted;
  let dt = Unix.gettimeofday () -. t0 in
  check_int "back to two" 2 (Block.length entry);
  check (Printf.sprintf "100k inserts and removals in %.3f s (< 2 s)" dt) true (dt < 2.0)

(* A table takes its bucket from the low bits of [Int_table.hash]; the
   look-ahead memo packs (iid, iid, depth) keys with the depth in the
   low bits, so the hash must bring every bit of the key down.  The
   key itself as hash, or a bare multiply, would put these 4,096 keys
   into 16 of 1,024 buckets. *)
let test_int_table_spreads_keys () =
  let buckets keys =
    let used = Array.make 1024 0 in
    List.iter (fun k -> used.(Int_table.hash k land 1023) <- used.(Int_table.hash k land 1023) + 1) keys;
    (Array.fold_left (fun n c -> if c > 0 then n + 1 else n) 0 used, Array.fold_left max 0 used)
  in
  let packed =
    List.concat
      (List.init 32 (fun ia ->
           List.concat
             (List.init 32 (fun ib -> List.init 4 (fun d -> (((ia lsl 27) lor ib) lsl 8) lor d)))))
  in
  List.iter
    (fun (name, keys) ->
      let used, fullest = buckets keys in
      if used < 900 || fullest > 16 then
        Alcotest.failf "%s: 4,096 keys in %d of 1,024 buckets, at most %d in one" name used fullest)
    [ ("packed keys", packed); ("consecutive ids", List.init 4096 Fun.id) ]

let suite =
  [
    ( "ir",
      [
        Alcotest.test_case "ty basics" `Quick test_ty_basics;
        Alcotest.test_case "literals" `Quick test_lit;
        Alcotest.test_case "values" `Quick test_value;
        Alcotest.test_case "builder and printer" `Quick test_builder_and_printer;
        Alcotest.test_case "builder type errors" `Quick test_builder_type_errors;
        Alcotest.test_case "uses and rauw" `Quick test_uses_and_rauw;
        Alcotest.test_case "erase with uses fails" `Quick test_erase_with_uses_fails;
        Alcotest.test_case "clone independence" `Quick test_clone_independent;
        Alcotest.test_case "verifier catches bad ir" `Quick test_verifier_catches_bad_ir;
        Alcotest.test_case "verifier use-before-def" `Quick test_verifier_use_before_def;
        Alcotest.test_case "dominance" `Quick test_dominance;
        Alcotest.test_case "block operations" `Quick test_block_ops;
        Alcotest.test_case "reorder rejects repeats" `Quick test_reorder_rejects_repeats;
        Alcotest.test_case "phi after a non-phi rejected" `Quick test_phi_after_non_phi;
        test_list_model;
        Alcotest.test_case "insert before last is O(1)" `Quick test_insert_guard;
        Alcotest.test_case "int table spreads packed keys" `Quick test_int_table_spreads_keys;
      ] );
  ]
