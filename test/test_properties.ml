(* Property-based tests (qcheck, run through alcotest).

   These pin the core invariants:
   - the affine summary of an address expression evaluates to the same
     integer as the expression itself;
   - APOs computed by chain discovery equal the sign tracked while
     generating the expression tree (the paper's parity rule);
   - Super-Node massaging preserves scalar semantics;
   - AST pretty-printing round-trips through the parser;
   - constant folding agrees with the interpreter;
   - the windowed dependence analysis agrees with a brute-force
     transitive closure. *)

open Snslp_ir
open Snslp_vectorizer

let to_alcotest = QCheck_alcotest.to_alcotest

(* --- Affine summaries evaluate correctly -------------------------------- *)

(* Random affine-safe integer expressions over two variables: sums,
   differences, and multiplications by constants. *)
type aexp = A_var of int | A_const of int | A_add of aexp * aexp | A_sub of aexp * aexp | A_cmul of int * aexp

let rec gen_aexp n =
  let open QCheck.Gen in
  if n = 0 then oneof [ map (fun v -> A_var v) (int_bound 1); map (fun c -> A_const (c - 8)) (int_bound 16) ]
  else
    frequency
      [
        (1, map (fun v -> A_var v) (int_bound 1));
        (1, map (fun c -> A_const (c - 8)) (int_bound 16));
        (3, map2 (fun a b -> A_add (a, b)) (gen_aexp (n - 1)) (gen_aexp (n - 1)));
        (3, map2 (fun a b -> A_sub (a, b)) (gen_aexp (n - 1)) (gen_aexp (n - 1)));
        (2, map2 (fun c a -> A_cmul (c - 4, a)) (int_bound 8) (gen_aexp (n - 1)));
      ]

let rec eval_aexp env = function
  | A_var v -> env.(v)
  | A_const c -> c
  | A_add (a, b) -> eval_aexp env a + eval_aexp env b
  | A_sub (a, b) -> eval_aexp env a - eval_aexp env b
  | A_cmul (c, a) -> c * eval_aexp env a

let lower_aexp (b : Builder.t) (f : Defs.func) (e : aexp) : Defs.value =
  let rec go = function
    | A_var v -> Defs.Arg (Func.arg f v)
    | A_const c -> Value.const_int c
    | A_add (x, y) -> Instr.value (Builder.add b (go x) (go y))
    | A_sub (x, y) -> Instr.value (Builder.sub b (go x) (go y))
    | A_cmul (c, x) -> Instr.value (Builder.mul b (Value.const_int c) (go x))
  in
  go e

let affine_matches_eval =
  QCheck.Test.make ~count:300 ~name:"affine summary evaluates like the expression"
    (QCheck.make (QCheck.Gen.sized_size (QCheck.Gen.int_bound 5) gen_aexp))
    (fun e ->
      let f = Func.create ~name:"aff" ~args:[ ("i", Ty.i64); ("j", Ty.i64) ] in
      let entry = Func.add_block f "entry" in
      let b = Builder.create f ~at:entry in
      let v = lower_aexp b f e in
      Builder.ret b;
      let aff = Snslp_analysis.Affine.of_value v in
      (* The affine form must be closed (no opaque vars beyond i/j)
         and evaluate identically for a few assignments. *)
      List.for_all
        (fun (i, j) ->
          let env = [| i; j |] in
          let direct = eval_aexp env e in
          let from_affine =
            Snslp_analysis.Affine.(
              aff.const
              + Snslp_analysis.Affine.Var_map.fold
                  (fun var coeff acc ->
                    match var with
                    | Snslp_analysis.Affine.Var.Arg_var p -> acc + (coeff * env.(p))
                    | Snslp_analysis.Affine.Var.Instr_var _ ->
                        QCheck.Test.fail_report "opaque var in affine-safe expression")
                  aff.terms 0)
          in
          direct = from_affine)
        [ (0, 0); (1, 0); (0, 1); (5, -3); (-7, 11) ])

(* --- APO parity rule ------------------------------------------------------ *)

(* Random chain trees over one family, tracking each leaf's expected
   APO while generating. *)
type ctree = C_leaf | C_node of Defs.binop * ctree * ctree

let gen_ctree ~fam n =
  let open QCheck.Gen in
  let direct = Family.direct_op fam and inverse = Family.inverse_op fam in
  let rec go n =
    if n = 0 then return C_leaf
    else
      frequency
        [
          (1, return C_leaf);
          ( 3,
            map2
              (fun op (a, b) -> C_node (op, a, b))
              (oneofl [ direct; inverse ])
              (pair (go (n - 1)) (go (n - 1))) );
        ]
  in
  go n

(* Expected APOs, in in-order leaf sequence, by the paper's rule: flip
   on the right edge of an inverse operation. *)
let expected_apos (t : ctree) : Apo.t list =
  let rec go t apo acc =
    match t with
    | C_leaf -> apo :: acc
    | C_node (op, l, r) ->
        let acc = go r (Apo.step apo op ~operand_index:1) acc in
        go l (Apo.step apo op ~operand_index:0) acc
  in
  go t Apo.Plus []

let count_leaves t =
  let rec go = function C_leaf -> 1 | C_node (_, l, r) -> go l + go r in
  go t

let apo_parity =
  QCheck.Test.make ~count:300 ~name:"chain discovery matches the APO parity rule"
    (QCheck.make
       ~print:(fun (_, t) -> Printf.sprintf "<tree with %d leaves>" (count_leaves t))
       QCheck.Gen.(
         pair (oneofl [ Family.Add_sub; Family.Mul_div ]) (int_range 1 4)
         >>= fun (fam, depth) -> map (fun t -> (fam, t)) (gen_ctree ~fam depth)))
    (fun (_fam, tree) ->
      QCheck.assume (count_leaves tree >= 3);
      (* Lower the tree to IR: each leaf is a distinct array load. *)
      let nleaves = count_leaves tree in
      let f =
        Func.create ~name:"apo"
          ~args:[ ("A", Ty.ptr Ty.F64); ("out", Ty.ptr Ty.F64) ]
      in
      let entry = Func.add_block f "entry" in
      let b = Builder.create f ~at:entry in
      let base = Defs.Arg (Func.arg f 0) in
      let leaves = Array.make nleaves (Value.const_float 0.0) in
      let next = ref 0 in
      let rec lower = function
        | C_leaf ->
            let g = Builder.gep b base (Value.const_int !next) in
            let l = Builder.load b (Instr.value g) in
            leaves.(!next) <- Instr.value l;
            incr next;
            Instr.value l
        | C_node (op, l, r) ->
            let lv = lower l in
            let rv = lower r in
            Instr.value (Builder.binop b op lv rv)
      in
      let root_v = lower tree in
      let root = match root_v with Defs.Instr i -> i | _ -> assert false in
      let out = Builder.gep b (Defs.Arg (Func.arg f 1)) (Value.const_int 0) in
      ignore (Builder.store b root_v (Instr.value out));
      Builder.ret b;
      Verifier.verify_exn f;
      match Chain.discover Config.snslp f root with
      | None -> QCheck.Test.fail_report "chain should form on a pure family tree"
      | Some chain ->
          let expected = Array.of_list (expected_apos tree) in
          Array.length chain.Chain.leaves = Array.length expected
          && Array.for_all
               (fun (l : Chain.leaf) ->
                 (* Discovery walks in order, so lpos matches the
                    in-order leaf sequence. *)
                 Apo.equal expected.(l.Chain.lpos) l.Chain.lapo)
               chain.Chain.leaves)

(* --- Super-Node massaging preserves semantics ----------------------------- *)

let massage_preserves_semantics =
  QCheck.Test.make ~count:150 ~name:"Super-Node massaging preserves lane semantics"
    QCheck.(make Gen.(pair (int_range 1 10_000) (int_range 2 5)))
    (fun (seed, nterms) ->
      (* Two-lane chains over the same term multiset, scrambled. *)
      let rand = Random.State.make [| seed |] in
      let arrays = [ "A"; "B"; "C" ] in
      let term k =
        ( Random.State.int rand 3 = 0,
          Printf.sprintf "%s[i+%d]" (List.nth arrays (k mod 3)) (Random.State.int rand 3)
        )
      in
      let terms0 = (false, snd (term 0)) :: List.init (nterms - 1) (fun k -> term (k + 1)) in
      let arr = Array.of_list terms0 in
      for k = Array.length arr - 1 downto 1 do
        let j = Random.State.int rand (k + 1) in
        let t = arr.(k) in
        arr.(k) <- arr.(j);
        arr.(j) <- t
      done;
      let rec to_front = function
        | (false, b) :: rest -> (false, b) :: rest
        | (true, b) :: rest -> to_front (rest @ [ (true, b) ])
        | [] -> []
      in
      let terms1 = to_front (Array.to_list arr) in
      let render terms =
        String.concat ""
          (List.mapi
             (fun k (inv, body) ->
               if k = 0 then body else (if inv then " - " else " + ") ^ body)
             terms)
      in
      let src =
        Printf.sprintf
          "kernel m(double O[], double A[], double B[], double C[], long i) {\n\
          \  O[i+0] = %s;\n  O[i+1] = %s;\n}"
          (render terms0) (render terms1)
      in
      let reg =
        {
          Snslp_kernels.Registry.name = "m";
          provenance = "";
          description = "";
          source = src;
          istride = 2;
          extent = 1;
          default_iters = 16;
        }
      in
      let wl = Snslp_kernels.Workload.prepare reg in
      let reference = Snslp_kernels.Workload.run_interp wl wl.Snslp_kernels.Workload.func in
      let sn =
        Snslp_passes.Pipeline.run ~setting:(Some Config.snslp)
          wl.Snslp_kernels.Workload.func
      in
      let got = Snslp_kernels.Workload.run_interp wl sn.Snslp_passes.Pipeline.func in
      Snslp_interp.Memory.equal reference got)

(* --- AST pretty-printing round-trips -------------------------------------- *)

let gen_ast_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun v -> Snslp_frontend.Ast.Var [| "x"; "y" |].(v)) (int_bound 1);
        map
          (fun k ->
            Snslp_frontend.Ast.Index
              ("A", { Snslp_frontend.Ast.desc = Snslp_frontend.Ast.Int_lit (Int64.of_int k); epos = { line = 0; col = 0 } }))
          (int_bound 7);
        map (fun f -> Snslp_frontend.Ast.Float_lit (0.25 *. float_of_int f)) (int_bound 64);
      ]
  in
  let wrap desc = { Snslp_frontend.Ast.desc; epos = { line = 0; col = 0 } } in
  let rec go n =
    if n = 0 then map wrap leaf
    else
      frequency
        [
          (1, map wrap leaf);
          ( 3,
            map3
              (fun op a b -> wrap (Snslp_frontend.Ast.Binary (op, a, b)))
              (oneofl Snslp_frontend.Ast.[ Add; Sub; Mul; Div ])
              (go (n - 1)) (go (n - 1)) );
          (1, map (fun a -> wrap (Snslp_frontend.Ast.Unary (Snslp_frontend.Ast.Neg, a))) (go (n - 1)));
        ]
  in
  sized_size (int_bound 5) go

let rec expr_shape (e : Snslp_frontend.Ast.expr) : string =
  match e.Snslp_frontend.Ast.desc with
  (* Numeric literals compare by value: 16.0 prints as "16", which
     reparses as an integer literal; in a double context both denote
     the same constant. *)
  | Snslp_frontend.Ast.Int_lit i -> Printf.sprintf "f%h" (Int64.to_float i)
  | Snslp_frontend.Ast.Float_lit f -> Printf.sprintf "f%h" f
  | Snslp_frontend.Ast.Var v -> "v" ^ v
  | Snslp_frontend.Ast.Index (a, e) -> Printf.sprintf "%s[%s]" a (expr_shape e)
  | Snslp_frontend.Ast.Unary (Snslp_frontend.Ast.Neg, e) -> Printf.sprintf "neg(%s)" (expr_shape e)
  | Snslp_frontend.Ast.Binary (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (expr_shape a) (Snslp_frontend.Ast.binop_to_string op)
        (expr_shape b)
  | Snslp_frontend.Ast.Cmp (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (expr_shape a)
        (Snslp_frontend.Ast.cmpop_to_string op)
        (expr_shape b)

let ast_roundtrip =
  QCheck.Test.make ~count:300 ~name:"AST pretty-printing round-trips through the parser"
    (QCheck.make ~print:(fun e -> Fmt.str "%a" Snslp_frontend.Ast.pp_expr e) gen_ast_expr)
    (fun e ->
      let src =
        Fmt.str "kernel r(double A[], double O[], double x, double y, long i) { O[i] = %a; }"
          Snslp_frontend.Ast.pp_expr e
      in
      match Snslp_frontend.Frontend.parse src with
      | [ { Snslp_frontend.Ast.kbody = [ { Snslp_frontend.Ast.sdesc = Snslp_frontend.Ast.Store (_, _, e'); _ } ]; _ } ]
        ->
          String.equal (expr_shape e) (expr_shape e')
      | _ -> false)

(* --- Constant folding agrees with the interpreter -------------------------- *)

let fold_agrees_with_interp =
  QCheck.Test.make ~count:300 ~name:"constant folding agrees with the interpreter"
    QCheck.(make Gen.(int_range 1 100_000))
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      (* A random constant float expression. *)
      let rec gen n =
        if n = 0 then Printf.sprintf "%d.%d" (Random.State.int rand 8) (25 * Random.State.int rand 4)
        else
          let op = [| " + "; " - "; " * " |].(Random.State.int rand 3) in
          Printf.sprintf "(%s%s%s)" (gen (n - 1)) op (gen (n - 1))
      in
      let src =
        Printf.sprintf "kernel c(double O[], long i) { O[i] = %s; }" (gen (2 + Random.State.int rand 2))
      in
      let f = Snslp_frontend.Frontend.compile_one src in
      let g = Func.clone f in
      ignore (Snslp_passes.Fold.run g);
      (* After folding, the store's operand must be one constant equal
         to what interpreting the original computes. *)
      let memory = Snslp_interp.Memory.create () in
      Snslp_interp.Memory.alloc_float memory ~arg_pos:0 ~size:4;
      Snslp_interp.Interp.run f
        ~args:[| Snslp_interp.Rvalue.R_ptr { base = 0; offset = 0 }; Snslp_interp.Rvalue.R_int 0L |]
        ~memory;
      let expected = (Snslp_interp.Memory.float_buffer memory ~arg_pos:0).(0) in
      let store = List.find Instr.is_store (Block.instrs (Func.entry g)) in
      match Instr.operand store 0 with
      | Defs.Const { lit = Lit.Float got; _ } ->
          Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float expected)
      | _ -> false)

(* --- Windowed dependence analysis matches brute force ----------------------- *)

let deps_match_brute_force =
  QCheck.Test.make ~count:200 ~name:"windowed deps match brute-force closure"
    QCheck.(make Gen.(int_range 1 100_000))
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      (* Random straight-line program over two arrays with mixed loads
         and stores, then compare Deps.depends for all pairs against a
         naive fixpoint closure. *)
      let stmts =
        List.init
          (3 + Random.State.int rand 5)
          (fun _ ->
            let dst = [| "A"; "B" |].(Random.State.int rand 2) in
            let src1 = [| "A"; "B" |].(Random.State.int rand 2) in
            Printf.sprintf "  %s[i+%d] = %s[i+%d] + 1.0;" dst (Random.State.int rand 3)
              src1 (Random.State.int rand 3))
      in
      let src =
        Printf.sprintf "kernel d(double A[], double B[], long i) {\n%s\n}"
          (String.concat "\n" stmts)
      in
      let f = Snslp_frontend.Frontend.compile_one src in
      let blk = Func.entry f in
      let deps = Snslp_analysis.Deps.of_block blk in
      let instrs = Array.of_list (Block.instrs blk) in
      let n = Array.length instrs in
      (* Brute force: direct edges then Floyd-Warshall-ish closure. *)
      let direct = Array.make_matrix n n false in
      let index = Hashtbl.create 32 in
      Array.iteri (fun k i -> Hashtbl.replace index i.Defs.iid k) instrs;
      Array.iteri
        (fun k i ->
          Array.iter
            (fun o ->
              match o with
              | Defs.Instr d -> (
                  match Hashtbl.find_opt index d.Defs.iid with
                  | Some dk when dk < k -> direct.(dk).(k) <- true
                  | _ -> ())
              | _ -> ())
            i.Defs.ops;
          match Snslp_analysis.Deps.memloc_of_instr i with
          | None -> ()
          | Some li ->
              for j = 0 to k - 1 do
                match Snslp_analysis.Deps.memloc_of_instr instrs.(j) with
                | Some lj
                  when (Instr.writes_memory i || Instr.writes_memory instrs.(j))
                       && Snslp_analysis.Deps.may_overlap li lj ->
                    direct.(j).(k) <- true
                | _ -> ()
              done)
        instrs;
      let closure = Array.map Array.copy direct in
      for m = 0 to n - 1 do
        for a = 0 to n - 1 do
          for b = 0 to n - 1 do
            if closure.(a).(m) && closure.(m).(b) then closure.(a).(b) <- true
          done
        done
      done;
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          let got = Snslp_analysis.Deps.depends deps ~on:instrs.(a) instrs.(b) in
          if got <> closure.(a).(b) then ok := false
        done
      done;
      !ok)

(* --- Seed chunking invariants ---------------------------------------------- *)

let seeds_chunk_invariants =
  QCheck.Test.make ~count:200 ~name:"seed chunking preserves order and membership"
    QCheck.(make Gen.(pair (int_range 2 40) (int_range 2 8)))
    (fun (run_len, width) ->
      (* A synthetic run of adjacent stores. *)
      let stmts =
        List.init run_len (fun k -> Printf.sprintf "  A[i+%d] = %d.0;" k k)
        |> String.concat "\n"
      in
      let src = Printf.sprintf "kernel s(double A[], long i) {\n%s\n}" stmts in
      let f = Snslp_frontend.Frontend.compile_one src in
      match Snslp_vectorizer.Seeds.runs (Func.entry f) with
      | [ run ] ->
          let groups, rest = Snslp_vectorizer.Seeds.chunk ~width run in
          (* Instructions sit in cyclic structures (block back
             pointers), so compare by id. *)
          let ids l = List.map (fun (i : Defs.instr) -> i.Defs.iid) l in
          List.for_all (fun g -> List.length g = width) groups
          && (List.length groups * width) + List.length rest = run_len
          && ids (List.concat groups @ rest) = ids run
          (* recut of the full run gives it back. *)
          && (match Snslp_vectorizer.Seeds.recut run with
             | [ r ] -> ids r = ids run
             | _ -> false)
      | _ -> false)

let widths_are_decreasing_powers =
  QCheck.Test.make ~count:100 ~name:"seed widths are descending powers of two"
    QCheck.(make Gen.(int_range 0 64))
    (fun max_width ->
      let ws = Snslp_vectorizer.Seeds.widths ~max_width in
      let pow2 k = k land (k - 1) = 0 in
      List.for_all (fun w -> w >= 2 && w <= max_width && pow2 w) ws
      &&
      let rec desc = function
        | a :: (b :: _ as rest) -> a = 2 * b && desc rest
        | _ -> true
      in
      desc ws)

(* --- Look-ahead scoring sanity ---------------------------------------------- *)

let lookahead_nonnegative_and_reflexive =
  QCheck.Test.make ~count:150 ~name:"look-ahead scores are >= 0; splat maximal shallow"
    QCheck.(make Gen.(int_range 1 100_000))
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let src =
        Printf.sprintf
          "kernel l(double A[], double B[], long i) { A[i] = B[i+%d] * B[i+%d] + B[i+%d]; }"
          (Random.State.int rand 3) (Random.State.int rand 3) (Random.State.int rand 3)
      in
      let f = Snslp_frontend.Frontend.compile_one src in
      let values =
        Func.fold_instrs
          (fun acc j -> if Instr.has_result j then Instr.value j :: acc else acc)
          [] f
      in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              (* Scores are non-negative, and the look-ahead only adds
                 to the shallow score. *)
              let deep = Snslp_vectorizer.Lookahead.score ~depth:2 a b in
              let shallow = Snslp_vectorizer.Lookahead.shallow a b in
              deep >= 0 && deep >= shallow)
            values)
        values)

(* --- Cost breakdown consistency ---------------------------------------------- *)

let cost_breakdown_sums =
  QCheck.Test.make ~count:100 ~name:"cost breakdown total = nodes + extracts"
    QCheck.(make Gen.(int_range 1 100_000))
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      let off k = Random.State.int rand 3 + k in
      let src =
        Printf.sprintf
          "kernel c(double A[], double B[], double C[], long i) {\n\
          \  A[i+0] = B[i+%d] + C[i+%d];\n\
          \  A[i+1] = B[i+%d] - C[i+%d];\n\
           }"
          (off 0) (off 0) (off 1) (off 1)
      in
      let f = Snslp_frontend.Frontend.compile_one src in
      ignore (Snslp_passes.Fold.run f);
      ignore (Snslp_passes.Simplify.run f);
      ignore (Snslp_passes.Cse.run f);
      let config = Snslp_vectorizer.Config.snslp in
      let lanes_for = Snslp_costmodel.Target.lanes_for Snslp_costmodel.Target.sse in
      match Snslp_vectorizer.Seeds.collect (Func.entry f) ~lanes_for with
      | [ seed_group ] -> (
          let block = Func.entry f in
          let deps = Snslp_analysis.Deps.of_block block in
          match Snslp_vectorizer.Graph.build ~deps config f block seed_group with
          | Some g ->
              let b = Snslp_vectorizer.Cost.of_graph config g in
              let node_sum =
                List.fold_left (fun acc (_, c) -> acc +. c) 0.0 b.Snslp_vectorizer.Cost.per_node
              in
              abs_float
                (b.Snslp_vectorizer.Cost.total
                -. (node_sum +. b.Snslp_vectorizer.Cost.extracts))
              < 1e-9
          | None -> QCheck.assume_fail ())
      | _ -> QCheck.assume_fail ())

(* --- Memoized look-ahead equals the reference -------------------------------- *)

let lookahead_memo_matches_reference =
  QCheck.Test.make ~count:100 ~name:"memoized look-ahead equals the unmemoized reference"
    QCheck.(make Gen.(int_range 1 100_000))
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      (* Random two-lane expression trees over few arrays and small
         offsets; CSE turns the repeated loads into genuine sharing,
         so the scored operand structure is a DAG — the shape where a
         wrong cache key (collision across pairs, depths, or operand
         order) would be observable. *)
      let term () =
        Printf.sprintf "%s[i+%d]"
          [| "A"; "B"; "C" |].(Random.State.int rand 3)
          (Random.State.int rand 3)
      in
      let rec expr n =
        if n = 0 then term ()
        else
          let op = [| " + "; " - "; " * " |].(Random.State.int rand 3) in
          Printf.sprintf "(%s%s%s)" (expr (n - 1)) op (expr (n - 1))
      in
      let depth0 = 1 + Random.State.int rand 3 in
      let src =
        Printf.sprintf
          "kernel k(double O[], double A[], double B[], double C[], long i) {\n\
          \  O[i+0] = %s;\n\
          \  O[i+1] = %s;\n\
           }"
          (expr depth0) (expr depth0)
      in
      let f = Snslp_frontend.Frontend.compile_one src in
      ignore (Snslp_passes.Cse.run f);
      let values =
        Func.fold_instrs
          (fun acc j -> if Instr.has_result j then Instr.value j :: acc else acc)
          [] f
      in
      let values = List.filteri (fun k _ -> k < 20) values in
      (* One cache shared across every query: an entry written for one
         (pair, depth) must never answer another. *)
      let cache = Lookahead.cache_create () in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              List.for_all
                (fun depth -> Lookahead.score ~cache ~depth a b = Lookahead.score ~depth a b)
                [ 0; 1; 2; 3; 4 ])
            values)
        values)

(* --- Use-list consistency through rewrites ----------------------------------- *)

let check_uses (f : Defs.func) =
  match Func.check_use_lists f with
  | Ok () -> true
  | Error e -> QCheck.Test.fail_report e

let use_lists_stay_consistent =
  QCheck.Test.make ~count:150
    ~name:"use-lists stay consistent through replace/erase/vectorization"
    QCheck.(make Gen.(int_range 1 100_000))
    (fun seed ->
      let rand = Random.State.make [| seed |] in
      (* The massage-style workload: two-lane +/- chains over shared
         arrays, so the SN-SLP pipeline run below actually rewrites
         the function (massaging inserts and erases trunk chains). *)
      let nterms = 2 + Random.State.int rand 4 in
      let lane () =
        String.concat ""
          (List.init nterms (fun k ->
               let t =
                 Printf.sprintf "%s[i+%d]"
                   [| "A"; "B"; "C" |].(k mod 3)
                   (Random.State.int rand 3)
               in
               if k = 0 then t else (if Random.State.int rand 3 = 0 then " - " else " + ") ^ t))
      in
      let src =
        Printf.sprintf
          "kernel u(double O[], double A[], double B[], double C[], long i) {\n\
          \  O[i+0] = %s;\n\
          \  O[i+1] = %s;\n\
           }"
          (lane ()) (lane ())
      in
      let f = Snslp_frontend.Frontend.compile_one src in
      check_uses f
      && begin
           (* replace_all_uses: redirect one value to a same-typed
              other; the old def must end up use-free, the new one
              must absorb its uses. *)
           let candidates =
             Func.fold_instrs
               (fun acc j ->
                 if Instr.has_result j && (not (Instr.is_store j)) then j :: acc else acc)
               [] f
           in
           match candidates with
           | a :: rest -> (
               match
                 List.find_opt (fun b -> Ty.equal (Instr.ty a) (Instr.ty b)) rest
               with
               | Some b ->
                   Func.replace_all_uses f ~old_v:(Instr.value a) ~new_v:(Instr.value b);
                   check_uses f
                   && (not (Func.has_uses f (Instr.value a)))
                   &&
                   (* the now-dead def erases cleanly, unlinking
                      itself from its operands' use-lists *)
                   (Func.erase_instr f a;
                    check_uses f)
               | None -> true)
           | [] -> true
         end
      &&
      (* A full SN-SLP run (massage, codegen rewiring, dead-trunk
         erasure) on a fresh copy keeps the invariant. *)
      let g = Snslp_frontend.Frontend.compile_one src in
      let r = Snslp_passes.Pipeline.run ~setting:(Some Config.snslp) g in
      check_uses r.Snslp_passes.Pipeline.func)

(* --- Fingerprint soundness --------------------------------------------------- *)

(* [Config.fingerprint] keys the compile-service cache, so two configs
   with equal fingerprints MUST produce byte-identical optimized IR on
   every function.  The pool pairs fingerprint-equal configs differing
   only in an excluded knob (verify_each — checking, not semantics)
   with fingerprint-distinct ones differing in packing and mode; the
   property quantifies over fuzz-generated functions.
   By construction the pool contains both equal- and distinct-
   fingerprint pairs, so the implication is never vacuous. *)
let fingerprint_keys_output =
  QCheck.Test.make ~count:60 ~name:"equal fingerprints imply identical optimized IR"
    QCheck.(make Gen.(int_range 1 100_000))
    (fun seed ->
      let global beam node_budget (c : Config.t) =
        { c with Config.packing = Config.Global { beam; node_budget } }
      in
      let pool =
        [
          Config.snslp;
          { Config.snslp with Config.verify_each = true };
          global Config.default_beam Config.default_node_budget Config.snslp;
          global 2 64 Config.snslp;
          Config.lslp;
        ]
      in
      let outputs =
        List.map
          (fun c ->
            let f = Snslp_fuzzer.Gen.generate ~seed () in
            let r = Snslp_passes.Pipeline.run ~setting:(Some c) f in
            (Config.fingerprint c, Printer.func_to_string r.Snslp_passes.Pipeline.func))
          pool
      in
      List.for_all
        (fun (fp_a, out_a) ->
          List.for_all
            (fun (fp_b, out_b) ->
              (not (String.equal fp_a fp_b)) || String.equal out_a out_b)
            outputs)
        outputs)

let suite =
  [
    ( "properties",
      List.map to_alcotest
        [
          affine_matches_eval;
          apo_parity;
          massage_preserves_semantics;
          ast_roundtrip;
          fold_agrees_with_interp;
          deps_match_brute_force;
          seeds_chunk_invariants;
          widths_are_decreasing_powers;
          lookahead_nonnegative_and_reflexive;
          lookahead_memo_matches_reference;
          cost_breakdown_sums;
          use_lists_stay_consistent;
          fingerprint_keys_output;
        ] );
  ]
