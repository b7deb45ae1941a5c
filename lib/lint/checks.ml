(* The checker suite.

   Each checker walks a function and emits findings; severities follow
   what the finding means at runtime.  [Error] marks code that traps
   or reads garbage when executed (undef operands, provably
   out-of-bounds accesses, cross-kind memory access — the static
   mirror of [Memory.read]'s runtime rejection); [Warning] marks code
   that is correct but wasteful or suspicious (dead stores — the
   fuzzer's generator legitimately emits same-location overwrites);
   [Info] marks optimization opportunities (available-expression
   redundancies CSE would remove). *)

open Snslp_ir
open Snslp_analysis

(* --- use-of-undef --------------------------------------------------------- *)

(* The vectorizer's own codegen builds vectors from [undef] (insert
   chains, shuffle second operands), so those two positions are the
   only sanctioned uses. *)
let undef_ok (i : Defs.instr) (operand : int) =
  match i.Defs.op with
  | Defs.Insert -> operand = 0
  | Defs.Shuffle _ -> operand = 1
  | _ -> false

let undef_uses (f : Defs.func) : Finding.t list =
  let acc = ref [] in
  Func.iter_instrs
    (fun i ->
      Array.iteri
        (fun k v ->
          match v with
          | Defs.Undef _ when not (undef_ok i k) ->
              acc :=
                Finding.v ~check:"use-of-undef" Finding.Error f i
                  (Printf.sprintf "operand %d is undef" k)
                :: !acc
          | _ -> ())
        i.Defs.ops)
    f;
  List.iter
    (fun (b : Defs.block) ->
      match b.Defs.term with
      | Defs.Cond_br (Defs.Undef _, _, _) ->
          acc :=
            Finding.v_at ~check:"use-of-undef" Finding.Error f
              (Printf.sprintf "cond_br in %s" b.Defs.bname)
              "branch condition is undef"
            :: !acc
      | _ -> ())
    f.Defs.blocks;
  List.rev !acc

(* --- dead stores ----------------------------------------------------------- *)

let store_width (i : Defs.instr) = Ty.lanes (Value.ty i.Defs.ops.(0))
let load_width (i : Defs.instr) = Ty.lanes i.Defs.ty

(* [a] fully covered by a later store [b]: both addresses resolve,
   same base, known distance, and [b]'s range contains [a]'s. *)
let covers ~(later : Address.t) ~later_width ~(earlier : Address.t) ~earlier_width =
  Address.same_base earlier later
  &&
  match Address.delta earlier later with
  | Some d -> d <= 0 && d + later_width >= earlier_width
  | None -> false

(* A store is dead when a later store in the same block provably
   overwrites all its cells before any possibly-overlapping load.
   Later blocks never matter: the overwrite always executes. *)
let dead_stores (f : Defs.func) : Finding.t list =
  let acc = ref [] in
  List.iter
    (fun (b : Defs.block) ->
      let rec scan = function
        | [] -> ()
        | (s : Defs.instr) :: rest when Instr.is_store s -> (
            (match Deps.memloc_of_instr s with
            | None -> ()
            | Some loc ->
                let rec follow = function
                  | [] -> ()
                  | (j : Defs.instr) :: tail ->
                      if Instr.is_load j then (
                        (* A load observes the store unless the two
                           provably do not overlap (the alias model of
                           the dependence analysis). *)
                        match Deps.memloc_of_instr j with
                        | Some lj when not (Deps.may_overlap loc lj) -> follow tail
                        | _ -> () (* may read the cells: live *))
                      else if Instr.is_store j then (
                        match Address.of_instr j with
                        | Some ja
                          when covers ~later:ja ~later_width:(store_width j)
                                 ~earlier:loc.Deps.addr ~earlier_width:loc.Deps.width ->
                            acc :=
                              Finding.v ~check:"dead-store" Finding.Warning f s
                                (Printf.sprintf "overwritten by %s before any read"
                                   (Instr.to_string j))
                              :: !acc
                        | _ -> follow tail)
                      else follow tail
                in
                follow rest);
            scan rest)
        | _ :: rest -> scan rest
      in
      scan (Block.instrs b))
    f.Defs.blocks;
  List.rev !acc

(* --- provably out-of-bounds ------------------------------------------------ *)

let bounds ?bound (f : Defs.func) : Finding.t list =
  let acc = ref [] in
  Func.iter_instrs
    (fun i ->
      if Instr.is_memory i then
        match Address.of_instr i with
        | Some a when Affine.is_const a.Address.index ->
            let first = a.Address.index.Affine.const in
            let width = if Instr.is_store i then store_width i else load_width i in
            if first < 0 then
              acc :=
                Finding.v ~check:"out-of-bounds" Finding.Error f i
                  (Printf.sprintf "element index %d is negative" first)
                :: !acc
            else (
              match bound with
              | Some n when first + width > n ->
                  acc :=
                    Finding.v ~check:"out-of-bounds" Finding.Error f i
                      (Printf.sprintf "elements [%d, %d) exceed the %d-element buffer" first
                         (first + width) n)
                    :: !acc
              | _ -> ())
        | _ -> ())
    f;
  List.rev !acc

(* --- cross-kind memory access ---------------------------------------------- *)

(* The static mirror of [Memory.read]/[Memory.write]'s runtime rules:
   the buffer kind is the pointer argument's element kind; accessing
   an int buffer as float (or vice versa) traps at runtime, and a
   same-kind width mismatch is merely ill-typed IR (the verifier's
   department), so it is only a warning here. *)
let memory_kinds (f : Defs.func) : Finding.t list =
  let acc = ref [] in
  Func.iter_instrs
    (fun i ->
      if Instr.is_memory i then
        let access_elem =
          if Instr.is_store i then Ty.elem (Value.ty i.Defs.ops.(0)) else Ty.elem i.Defs.ty
        in
        match Address.of_instr i with
        | Some { Address.base = Defs.Arg a; _ } -> (
            match a.Defs.arg_ty with
            | Ty.Ptr buffer ->
                if Ty.scalar_is_float buffer <> Ty.scalar_is_float access_elem then
                  acc :=
                    Finding.v ~check:"memory-kind" Finding.Error f i
                      (Printf.sprintf "%s access to the %s buffer %s"
                         (Ty.scalar_to_string access_elem)
                         (Ty.scalar_to_string buffer) a.Defs.arg_name)
                    :: !acc
                else if not (Ty.scalar_equal buffer access_elem) then
                  acc :=
                    Finding.v ~check:"memory-kind" Finding.Warning f i
                      (Printf.sprintf "%s access to the %s buffer %s (width mismatch)"
                         (Ty.scalar_to_string access_elem)
                         (Ty.scalar_to_string buffer) a.Defs.arg_name)
                    :: !acc
            | _ -> ())
        | _ -> ())
    f;
  List.rev !acc

(* --- redundant expressions ------------------------------------------------- *)

let redundant (f : Defs.func) : Finding.t list =
  let solution = Avail.compute f in
  List.map
    (fun i ->
      Finding.v ~check:"redundant-expr" Finding.Info f i
        "expression is already available (CSE opportunity)")
    (Avail.redundant solution f)

(* --- loop checkers ---------------------------------------------------------- *)

open Snslp_loops

(* Findings against loop code name the owning loop header: the
   instruction alone does not say which iteration space it runs
   under. *)
let in_loop (l : Loops.loop) (i : Defs.instr) =
  Printf.sprintf "%s (loop %s)" (Instr.to_string i) l.Loops.header.Defs.bname

let has_loops (f : Defs.func) =
  match f.Defs.blocks with [] | [ _ ] -> false | _ -> true

(* Innermost counted loops with a known trip count, their iv range
   materialised: the induction variable's first and last value. *)
let counted_with_range (t : Loopdep.t) =
  List.filter_map
    (fun (info : Loopdep.loop_info) ->
      match (info.Loopdep.counted, info.Loopdep.trip) with
      | Ok (c, _), Some n when n > 0 && info.Loopdep.loop.Loops.children = [] -> (
          match c.Loops.init with
          | Defs.Const { lit = Lit.Int i0; _ } ->
              let last = Int64.add i0 (Int64.mul (Int64.of_int (n - 1)) c.Loops.step) in
              Some (info, c, n, i0, last)
          | _ -> None)
      | _ -> None)
    t.Loopdep.infos

(* [loop_bounds ?bound f t] — symbolic out-of-bounds: for an access
   [a·iv + r] with constant [r] inside a counted loop of known trip,
   the element range over *all* iterations is [a·iv_range + r]; a
   range dipping below zero or (with [bound]) past the buffer end is
   the off-by-one the constant-only {!bounds} checker cannot see,
   because the offending index only materialises at some
   iteration. *)
let loop_bounds ?bound (f : Defs.func) (t : Loopdep.t) : Finding.t list =
  let acc = ref [] in
  List.iter
    (fun ((info : Loopdep.loop_info), (c : Loops.counted), _n, i0, last) ->
      let l = info.Loopdep.loop in
      let iv_var = Affine.Var.Instr_var c.Loops.iv.Defs.iid in
      List.iter
        (fun (b : Defs.block) ->
          List.iter
            (fun (i : Defs.instr) ->
              if Instr.is_memory i then
                match Address.of_instr i with
                | Some { Address.base = Defs.Arg _; index; _ } ->
                    let a =
                      match Affine.Var_map.find_opt iv_var index.Affine.terms with
                      | Some v -> v
                      | None -> 0
                    in
                    if a <> 0 && Affine.Var_map.cardinal index.Affine.terms = 1 then begin
                      let at iv = Int64.add (Int64.mul (Int64.of_int a) iv) (Int64.of_int index.Affine.const) in
                      let e0 = at i0 and e1 = at last in
                      let lo = if Int64.compare e0 e1 <= 0 then e0 else e1 in
                      let hi = if Int64.compare e0 e1 <= 0 then e1 else e0 in
                      let width = if Instr.is_store i then store_width i else load_width i in
                      let hi_end = Int64.add hi (Int64.of_int width) in
                      if Int64.compare lo 0L < 0 then
                        acc :=
                          Finding.v_at ~check:"loop-out-of-bounds" Finding.Error f
                            (in_loop l i)
                            (Printf.sprintf
                               "element index reaches %Ld over iv in [%Ld, %Ld] (negative)"
                               lo i0 last)
                          :: !acc
                      else (
                        match bound with
                        | Some nbuf when Int64.compare hi_end (Int64.of_int nbuf) > 0 ->
                            acc :=
                              Finding.v_at ~check:"loop-out-of-bounds" Finding.Error f
                                (in_loop l i)
                                (Printf.sprintf
                                   "elements reach [%Ld, %Ld) over iv in [%Ld, %Ld], past the %d-element buffer"
                                   hi hi_end i0 last nbuf)
                              :: !acc
                        | _ -> ())
                    end
                | _ -> ())
            (Block.instrs b))
        l.Loops.blocks)
    (counted_with_range t);
  List.rev !acc

(* [loop_dead_stores f t] — a store to a loop-invariant location that
   executes every iteration (its block dominates the latch) and that
   no loop load may observe is overwritten by the next iteration:
   every trip but the last is wasted work. *)
let loop_dead_stores (f : Defs.func) (t : Loopdep.t) : Finding.t list =
  let dom = lazy (Dominance.compute f) in
  let acc = ref [] in
  List.iter
    (fun ((info : Loopdep.loop_info), (c : Loops.counted), n, _i0, _last) ->
      if n >= 2 then begin
        let l = info.Loopdep.loop in
        let loop_loads =
          List.concat_map
            (fun (b : Defs.block) -> List.filter Instr.is_load (Block.instrs b))
            l.Loops.blocks
        in
        let iv_var = Affine.Var.Instr_var c.Loops.iv.Defs.iid in
        List.iter
          (fun (b : Defs.block) ->
            if Dominance.dominates (Lazy.force dom) b c.Loops.latch then
              List.iter
                (fun (s : Defs.instr) ->
                  if Instr.is_store s then
                    match Deps.memloc_of_instr s with
                    | Some ({ Deps.addr = { Address.base = Defs.Arg _; index; _ }; _ } as loc)
                      when not (Affine.Var_map.mem iv_var index.Affine.terms) ->
                        let observed =
                          List.exists
                            (fun (ld : Defs.instr) ->
                              match Deps.memloc_of_instr ld with
                              | Some ll -> Deps.may_overlap loc ll
                              | None -> true)
                            loop_loads
                        in
                        if not observed then
                          acc :=
                            Finding.v_at ~check:"loop-dead-store" Finding.Warning f
                              (in_loop l s)
                              (Printf.sprintf
                                 "loop-invariant store is overwritten by the next \
                                  iteration before any read (%d of %d trips wasted)"
                                 (n - 1) n)
                            :: !acc
                    | _ -> ())
                (Block.instrs b))
          l.Loops.blocks
      end)
    (counted_with_range t);
  List.rev !acc

(* [loop_termination f t] — counted loops that provably never settle
   (constant init/bound whose recurrence blows through the trip cap:
   the step moves away from, or forever misses, the bound) are
   [Error]; symbolic-bound loops whose step does not strictly
   approach the bound's failing side are flagged [Warning] — an [Ne]
   guard or a backwards step terminates only by wraparound luck. *)
let loop_termination (f : Defs.func) (t : Loopdep.t) : Finding.t list =
  let acc = ref [] in
  List.iter
    (fun (info : Loopdep.loop_info) ->
      match info.Loopdep.counted with
      | Error _ -> ()
      | Ok (c, _) -> (
          let l = info.Loopdep.loop in
          let where =
            Printf.sprintf "%s (loop %s)" (Instr.to_string c.Loops.cond)
              l.Loops.header.Defs.bname
          in
          let const_operands =
            match (c.Loops.init, c.Loops.bound) with
            | Defs.Const _, Defs.Const _ -> true
            | _ -> false
          in
          match info.Loopdep.trip with
          | Some _ -> ()
          | None when const_operands ->
              acc :=
                Finding.v_at ~check:"loop-termination" Finding.Error f where
                  (Printf.sprintf
                     "loop never settles within %d iterations: step %Ld never fails \
                      `%s bound`"
                     Loops.trip_count_cap c.Loops.step
                     (Defs.cmp_to_string c.Loops.cmp))
                :: !acc
          | None ->
              if not (Loops.monotone c) then
                acc :=
                  Finding.v_at ~check:"loop-termination" Finding.Warning f where
                    (Printf.sprintf
                       "non-monotone loop: step %Ld does not strictly approach the \
                        `%s` bound, so termination depends on the runtime value"
                       c.Loops.step
                       (Defs.cmp_to_string c.Loops.cmp))
                  :: !acc))
    t.Loopdep.infos;
  List.rev !acc

(* [loop_dependences f t] — the cross-iteration dependence report:
   every loop-carried flow/anti/output dependence with its iteration
   distance ([Info] — legal code, but the exact facts loop-carried
   vectorization must honour). *)
let loop_dependences (f : Defs.func) (t : Loopdep.t) : Finding.t list =
  List.concat_map
    (fun (info : Loopdep.loop_info) ->
      List.map
        (fun (d : Loopdep.dep) ->
          Finding.v_at ~check:"loop-carried-dep" Finding.Info f
            (in_loop info.Loopdep.loop d.Loopdep.dst)
            (Loopdep.dep_to_string d))
        info.Loopdep.deps)
    t.Loopdep.infos

(* --- the suite ------------------------------------------------------------- *)

(* The loop checkers share one [Loopdep] analysis. *)
let all ?bound (f : Defs.func) : Finding.t list =
  let loop_findings =
    if not (has_loops f) then []
    else
      let t = Loopdep.analyze f in
      loop_bounds ?bound f t @ loop_dead_stores f t @ loop_termination f t @ loop_dependences f t
  in
  undef_uses f @ dead_stores f @ bounds ?bound f @ memory_kinds f @ redundant f @ loop_findings
