(* Seeded random generator of well-typed straight-line IR functions.

   The generator is the front half of the fuzzing subsystem: it emits
   [Defs.func] values that always pass [Verifier.check], shaped to hit
   the SN-SLP vectorizer hard — adjacent store groups whose per-lane
   chains compute the same multiset of terms in scrambled order
   (the Super-Node pattern), gathered and splatted leaves, shared
   sub-expressions, reduction trees, compare/select lanes, and mixed
   int/float store groups in one function.

   Exactness discipline.  The differential oracle compares float
   memories, and SN-SLP reassociates (the paper's -ffast-math
   setting), so the generator is engineered to keep every reassociable
   float computation *exact*:

   - buffers hold dyadic rationals in [0.25, 8) (five mantissa bits),
     and constants are dyadic too;
   - arrays have roles: two read-only inputs, one "work" array written
     by first-generation groups, one "sink" array that is written but
     never read.  Chains only read inputs and work, so value
     magnitudes are bounded by two generations and +,-,* chains stay
     within the mantissa for both f64 and f32 (f32 second-generation
     products keep one factor a power of two);
   - division (inexact by nature) only appears in groups that write
     the sink, so a rounding error never feeds later computation; the
     oracle absorbs it with a tight tolerance.

   Integer chains wrap around and are exact under any reassociation.

   Determinism: the same seed (and profile) always produces the same
   function, instruction for instruction. *)

open Snslp_ir

type profile = {
  max_instrs : int; (* soft size bound; generation stops near it *)
  max_groups : int; (* store groups per function *)
  allow_f32 : bool; (* f32 functions (float side otherwise f64) *)
  allow_int : bool; (* integer store groups *)
  allow_div : bool; (* mul/div chains (sink-quarantined) *)
  allow_select : bool; (* cmp+select terms *)
  allow_reduction : bool; (* single-store reduction trees *)
  allow_loops : bool; (* counted loops around store groups *)
}

let default_profile =
  {
    max_instrs = 110;
    max_groups = 5;
    allow_f32 = true;
    allow_int = true;
    allow_div = true;
    allow_select = true;
    allow_reduction = true;
    allow_loops = false;
  }

let loopy_profile = { default_profile with allow_loops = true }

type family = F64 | F32 | I64

let scalar_of = function F64 -> Ty.F64 | F32 -> Ty.F32 | I64 -> Ty.I64
let is_float_family = function F64 | F32 -> true | I64 -> false

(* One "side" of a function: the float arrays or the int arrays. *)
type side = {
  fam : family;
  inputs : Defs.value array; (* read-only *)
  work : Defs.value; (* written by gen-1 groups, readable by gen-2 *)
  sink : Defs.value; (* written only, never read *)
}

(* A term of a chain: lane offset -> value, memoized so that the same
   term reused across lanes or chains shares the sub-expression in the
   IR (shared operands are what look-ahead reordering keys on). *)
type term = int -> Defs.value

type st = {
  rand : Random.State.t;
  func : Defs.func;
  builder : Builder.t;
  (* The symbolic address base: the [i] argument in straight-line
     code, the induction variable inside a generated loop body. *)
  mutable i_arg : Defs.value;
  fl : side;
  it : side;
  (* Reusable terms; [gen2] marks terms that read the work array and
     may therefore only feed sink-writing groups.  [pool_enabled] is
     cleared inside loop bodies: a memoized term materialized there
     would not dominate uses after the loop exit. *)
  mutable pool : (family * bool (* gen2 *) * term) list;
  mutable pool_enabled : bool;
  mutable count : int;
  mutable loops_made : int;
  profile : profile;
}

let rint st n = Random.State.int st.rand n
let chance st p = Random.State.float st.rand 1.0 < p

let side_of st fam = if is_float_family fam then st.fl else st.it

let memoize (f : term) : term =
  let cache = Hashtbl.create 4 in
  fun d ->
    match Hashtbl.find_opt cache d with
    | Some v -> v
    | None ->
        let v = f d in
        Hashtbl.add cache d v;
        v

(* --- Leaves ------------------------------------------------------------- *)

(* Address of element [off] of [arr]: either i-relative (an add + gep,
   the frontend's shape) or a constant index (a bare gep). *)
let addr st arr ~sym off =
  if sym then begin
    let idx = Builder.add st.builder st.i_arg (Value.const_int off) in
    let g = Builder.gep st.builder arr (Instr.value idx) in
    st.count <- st.count + 2;
    g
  end
  else begin
    let g = Builder.gep st.builder arr (Value.const_int off) in
    st.count <- st.count + 1;
    g
  end

let load_at st arr ~sym off =
  let g = addr st arr ~sym off in
  let l = Builder.load st.builder (Instr.value g) in
  st.count <- st.count + 1;
  Instr.value l

(* A dyadic constant of the family: exactly representable in f32 and
   never zero (safe as a divisor). *)
let const_of st fam =
  match fam with
  | I64 -> Value.const_int (1 + rint st 7)
  | F64 -> Value.const_float (0.25 *. float_of_int (1 + rint st 31))
  | F32 -> Value.const_float ~ty:Ty.f32 (0.25 *. float_of_int (1 + rint st 31))

let pow2_const_of st fam =
  let f = [| 0.5; 1.0; 2.0; 4.0 |].(rint st 4) in
  match fam with
  | I64 -> Value.const_int (1 lsl rint st 3)
  | F64 -> Value.const_float f
  | F32 -> Value.const_float ~ty:Ty.f32 f

(* A load leaf.  [gen2] additionally draws from the work array;
   [stride] 1 gives contiguous lanes, 2..3 gathered lanes, 0 repeats
   one location across all lanes (a splat). *)
let load_leaf st fam ~sym ~gen2 : term =
  let side = side_of st fam in
  let arr =
    if gen2 && chance st 0.45 then side.work
    else side.inputs.(rint st (Array.length side.inputs))
  in
  let off = rint st 6 in
  let stride = match rint st 6 with 0 -> 0 | 1 -> 2 | 2 -> 3 | _ -> 1 in
  memoize (fun d -> load_at st arr ~sym (off + (stride * d)))

let leaf st fam ~sym ~gen2 : term =
  if chance st 0.15 then
    let c = const_of st fam in
    memoize (fun _ -> c)
  else load_leaf st fam ~sym ~gen2

(* A product of two leaves.  For f32 second-generation terms one
   factor is a power of two, keeping the product exact (see the
   exactness discipline above). *)
let product_term st fam ~sym ~gen2 : term =
  let a = leaf st fam ~sym ~gen2 in
  let b =
    if fam = F32 && gen2 then
      let c = pow2_const_of st fam in
      fun _ -> c
    else leaf st fam ~sym ~gen2
  in
  memoize (fun d ->
      let v = Builder.mul st.builder (a d) (b d) in
      st.count <- st.count + 1;
      Instr.value v)

(* A cmp + select over four leaves; the select result is a unit value,
   so reassociation never crosses it. *)
let select_term st fam ~sym ~gen2 : term =
  let x = load_leaf st fam ~sym ~gen2 and y = load_leaf st fam ~sym ~gen2 in
  let t = leaf st fam ~sym ~gen2 and e = leaf st fam ~sym ~gen2 in
  let pred = [| Defs.Lt; Defs.Le; Defs.Gt; Defs.Ge; Defs.Eq; Defs.Ne |].(rint st 6) in
  memoize (fun d ->
      let c =
        if is_float_family fam then Builder.fcmp st.builder pred (x d) (y d)
        else Builder.icmp st.builder pred (x d) (y d)
      in
      let s = Builder.select st.builder (Instr.value c) (t d) (e d) in
      st.count <- st.count + 2;
      Instr.value s)

(* A term of an add/sub chain: fresh (leaf, product or select), or a
   reused term from the pool — the shared-sub-expression bias. *)
let sum_term st fam ~sym ~gen2 : term =
  let reusable =
    if st.pool_enabled then
      List.filter (fun (f, g2, _) -> f = fam && ((not g2) || gen2)) st.pool
    else []
  in
  if reusable <> [] && chance st 0.25 then
    let _, _, t = List.nth reusable (rint st (List.length reusable)) in
    t
  else begin
    let t =
      match rint st 10 with
      | 0 | 1 | 2 -> product_term st fam ~sym ~gen2
      | 3 when st.profile.allow_select -> select_term st fam ~sym ~gen2
      | _ -> leaf st fam ~sym ~gen2
    in
    if st.pool_enabled && List.length st.pool < 16 && chance st 0.5 then
      st.pool <- (fam, gen2, t) :: st.pool;
    t
  end

(* --- Chains ------------------------------------------------------------- *)

type signed_term = bool (* inverse op? *) * term

let shuffle st l =
  let arr = Array.of_list l in
  for k = Array.length arr - 1 downto 1 do
    let j = rint st (k + 1) in
    let t = arr.(k) in
    arr.(k) <- arr.(j);
    arr.(j) <- t
  done;
  Array.to_list arr

(* Rotate a direct (non-inverse) term to the front so the chain can
   start from it; the first generated term is always direct, so this
   terminates. *)
let rec direct_first = function
  | (false, t) :: rest -> (false, t) :: rest
  | (true, t) :: rest -> direct_first (rest @ [ (true, t) ])
  | [] -> []

let build_chain st ~muldiv (terms : signed_term list) d =
  match terms with
  | (_, t0) :: rest ->
      List.fold_left
        (fun acc (inverse, t) ->
          let v = t d in
          let i =
            match (muldiv, inverse) with
            | false, false -> Builder.add st.builder acc v
            | false, true -> Builder.sub st.builder acc v
            | true, false -> Builder.mul st.builder acc v
            | true, true -> Builder.div st.builder acc v
          in
          st.count <- st.count + 1;
          Instr.value i)
        (t0 d) rest
  | [] -> invalid_arg "Gen.build_chain: empty chain"

let store_to st arr ~sym off v =
  let a = addr st arr ~sym off in
  ignore (Builder.store st.builder v (Instr.value a));
  st.count <- st.count + 1

(* --- Store groups -------------------------------------------------------- *)

(* A group of [width] adjacent stores (the vectorizer's seed shape).
   Lane 0 fixes a multiset of signed terms; other lanes usually
   compute a scrambled copy (the Super-Node pattern), sometimes an
   independent chain (the reject path), sometimes the same order. *)
let gen_store_group ?(in_loop = false) st =
  let fam = if st.profile.allow_int && chance st 0.4 then I64 else st.fl.fam in
  let side = side_of st fam in
  (* Inside a loop every address is keyed on the induction variable so
     iterations write moving windows. *)
  let sym = chance st 0.7 || in_loop in
  let width =
    if fam = F32 && chance st 0.5 then 4
    else match rint st 8 with 0 -> 3 | 1 -> 4 | _ -> 2
  in
  let muldiv = is_float_family fam && st.profile.allow_div && chance st 0.22 in
  (* Division results are quarantined: they never feed later groups.
     In-loop groups read only the pristine inputs (gen2 off): a work
     cell re-read across iterations would compound rounding beyond the
     two-generation exactness bound. *)
  let gen2 = (not muldiv) && (not in_loop) && chance st 0.35 in
  let dst = if muldiv || gen2 then side.sink else if chance st 0.8 then side.work else side.sink in
  let len = if muldiv then 2 + rint st 2 else 2 + rint st 4 in
  let fresh_terms () =
    List.init len (fun k ->
        let inverse = k > 0 && chance st 0.35 in
        let t =
          if muldiv then leaf st fam ~sym ~gen2:false
          else sum_term st fam ~sym ~gen2
        in
        (inverse, t))
  in
  let terms0 = fresh_terms () in
  let base = rint st (if sym then 8 else 40) in
  for d = 0 to width - 1 do
    let terms =
      if d = 0 then terms0
      else if chance st 0.2 then fresh_terms ()
      else if chance st 0.75 then direct_first (shuffle st terms0)
      else terms0
    in
    let v = build_chain st ~muldiv terms d in
    store_to st dst ~sym (base + d) v
  done

(* A horizontal reduction: one store of a balanced add tree over
   contiguous loads — the shape the reduction pass seeds from. *)
let gen_reduction st =
  let fam = if st.profile.allow_int && chance st 0.3 then I64 else st.fl.fam in
  let side = side_of st fam in
  let src = side.inputs.(rint st (Array.length side.inputs)) in
  let n = if chance st 0.5 then 4 else 8 in
  let off = rint st 4 in
  let sym = chance st 0.7 in
  let leaves = List.init n (fun k -> load_at st src ~sym (off + k)) in
  let rec tree = function
    | [ v ] -> v
    | vs ->
        let rec pair = function
          | a :: b :: rest ->
              let s = Builder.add st.builder a b in
              st.count <- st.count + 1;
              Instr.value s :: pair rest
          | rest -> rest
        in
        tree (pair vs)
  in
  store_to st side.work ~sym (rint st 8) (tree leaves)

(* A verbatim copy of a just-written work cell into the sink: a true
   (load-after-store) dependence the vectorizer must not reorder
   across, with no arithmetic so exactness is untouched. *)
let gen_copy_probe st =
  let fam = if st.profile.allow_int && chance st 0.5 then I64 else st.fl.fam in
  let side = side_of st fam in
  let v = load_at st side.work ~sym:(chance st 0.7) (rint st 10) in
  store_to st side.sink ~sym:(chance st 0.7) (rint st 10) v

(* A counted loop in the canonical frontend shape (preheader -> header
   with the iv phi and bounds check -> body -> latch -> header), its
   body one or two store groups addressed off the induction variable.
   Bounds are small constants (full-unroll fodder, including zero
   trips) or the [i] argument (symbolic: the partial-unroll path).
   The term pool is disabled inside the body — a term materialized
   there would not dominate uses after the exit — and restored after,
   so loop-local caches never leak. *)
let gen_loop st =
  st.loops_made <- st.loops_made + 1;
  let n = st.loops_made in
  let preheader = Builder.block st.builder in
  let header = Func.add_block st.func (Printf.sprintf "head%d" n) in
  let body = Func.add_block st.func (Printf.sprintf "lbody%d" n) in
  let latch = Func.add_block st.func (Printf.sprintf "latch%d" n) in
  let exit_b = Func.add_block st.func (Printf.sprintf "lexit%d" n) in
  let symbolic = chance st 0.3 in
  let bound =
    if symbolic then st.i_arg (* = 8 under the oracle's harness *)
    else Value.const_int (rint st 7)
  in
  Builder.br st.builder header;
  Builder.position st.builder header;
  let iv =
    Builder.phi st.builder
      ~name:(Printf.sprintf "k%d" n)
      ~preds:[| preheader; latch |]
      [| Value.const_int 0; Defs.Undef (Ty.Scalar Ty.I64) |]
  in
  let cond = Builder.icmp st.builder Defs.Lt (Instr.value iv) bound in
  Builder.cond_br st.builder (Instr.value cond) body exit_b;
  Builder.position st.builder body;
  let saved_i = st.i_arg and saved_pool = st.pool in
  st.i_arg <- Instr.value iv;
  st.pool_enabled <- false;
  st.pool <- [];
  let groups = 1 + rint st 2 in
  for _ = 1 to groups do
    gen_store_group ~in_loop:true st
  done;
  st.i_arg <- saved_i;
  st.pool <- saved_pool;
  st.pool_enabled <- true;
  Builder.br st.builder latch;
  Builder.position st.builder latch;
  let next = Builder.add st.builder (Instr.value iv) (Value.const_int 1) in
  Builder.br st.builder header;
  Instr.set_operand iv 1 (Instr.value next);
  Builder.position st.builder exit_b;
  st.count <- st.count + 4

(* --- Whole functions ------------------------------------------------------ *)

let generate ?(profile = default_profile) ~seed () : Defs.func =
  let rand = Random.State.make [| 0x5eed; seed |] in
  let ffam =
    if profile.allow_f32 && Random.State.int rand 10 < 3 then F32 else F64
  in
  let fscalar = Ty.ptr (scalar_of ffam) in
  let iscalar = Ty.ptr Ty.I64 in
  let args =
    [
      ("A", fscalar); ("B", fscalar); ("C", fscalar); ("D", fscalar);
      ("P", iscalar); ("Q", iscalar); ("R", iscalar); ("S", iscalar);
      ("i", Ty.i64);
    ]
  in
  let func = Func.create ~name:(Printf.sprintf "fuzz%d" seed) ~args in
  let entry = Func.add_block func "entry" in
  let builder = Builder.create func ~at:entry in
  let arg n = Defs.Arg (Func.arg func n) in
  let st =
    {
      rand;
      func;
      builder;
      i_arg = arg 8;
      fl = { fam = ffam; inputs = [| arg 0; arg 1 |]; work = arg 2; sink = arg 3 };
      it = { fam = I64; inputs = [| arg 4; arg 5 |]; work = arg 6; sink = arg 7 };
      pool = [];
      pool_enabled = true;
      count = 0;
      loops_made = 0;
      profile;
    }
  in
  (* Always at least one store group; then add groups, probes (and
     loops, when enabled) until the size budget or the group cap is
     reached.  The draw pattern is identical for loop-free profiles,
     so a given (profile, seed) keeps generating the same function. *)
  gen_store_group st;
  let groups = ref 1 in
  while !groups < profile.max_groups && st.count < profile.max_instrs - 20 do
    (match rint st 10 with
    | 0 | 1 when profile.allow_reduction -> gen_reduction st
    | 2 -> gen_copy_probe st
    | 3 | 4 when profile.allow_loops -> gen_loop st
    | _ -> gen_store_group st);
    incr groups
  done;
  Builder.ret st.builder;
  (* The generator's contract: every emitted function verifies. *)
  Verifier.verify_exn func;
  func

(* The oracle's tolerance for a generated function: integer chains and
   float +,-,* chains are exact by construction, so only division
   roundings (sink-quarantined, at most a few ops deep) need slack —
   tighter for f64 than for per-op-rounded f32. *)
let tolerance_for (func : Defs.func) : float =
  let has_f32 =
    Array.exists
      (fun (a : Defs.arg) ->
        match a.Defs.arg_ty with Ty.Ptr s -> s = Ty.F32 | _ -> false)
      (Func.args func)
  in
  if has_f32 then 1e-5 else 1e-12
