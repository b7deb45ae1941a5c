(* The translation validator.

   Both sides of a transformation are executed symbolically: every
   value is normalised ({!Normal}), memory is a map from symbolic
   locations (argument base + canonical index sum) to normalised
   stored values with store-to-load forwarding, and control flow
   covers straight lines, the acyclic diamonds/triangles
   if-conversion handles, and counted loops ({!Snslp_loops}) — a
   conditional's arms run on copies of the memory, and a loop either
   runs trip-by-trip when its count is a compile-time constant or is
   folded into a per-iteration *summary* when the trip is symbolic.
   The final memories (plus the loop summaries) are then compared
   store-by-store.

   Three-valued outcome: [Valid] (same stored locations, same normal
   forms, possibly within coefficient tolerance), [Unknown] (one side
   fell outside the supported fragment: irregular loops, vector
   arguments, unresolvable addresses, distribution blow-up, or the
   two sides' loop summaries diverge — inductively inconclusive, not
   disproved), [Mismatch] (a location differs — pinpointed by the
   pretty-printed store).

   Loops.  A counted loop with constant init and bound is executed
   concretely: the induction variable is bound to each constant in
   turn and the body re-executed, so full/partial unrolls,
   unroll-and-jam and rotated forms reach the exact same final memory
   as their source loop.  A *symbolic*-trip loop in the strict
   counted form is summarised instead: one abstract iteration runs
   with the iv bound to a canonical atom and fresh memory, producing
   a parametric per-iteration store footprint; two sides whose
   summaries (init, bound, cmp, step, and the footprint) coincide
   perform identical state transformations at every iteration, so by
   induction their loops are equivalent — the summary participates in
   the comparison and the semantic digest.  Inside a summary, a
   [Cell] atom means "the content of that location *at iteration
   entry*"; reusing such an atom for the same location at a different
   program point would conflate two different concrete values, so
   buffers written by a symbolic loop are *tainted* and any later
   access to them gives up (sound: [Unknown], never a false
   [Valid]).

   The memory abstraction treats distinct symbolic locations as
   disjoint.  That is applied to both sides identically, and the
   passes never reorder may-aliasing accesses (the dependence analysis
   is conservative), so a transformation that is correct under the
   concrete memory is [Valid] here and an APO sign error stays a
   [Mismatch]. *)

open Snslp_ir
open Snslp_loops
module Int_set = Set.Make (Int)

type verdict = Valid | Unknown of string | Mismatch of { where : string; detail : string }

let verdict_to_string = function
  | Valid -> "valid"
  | Unknown reason -> "unknown: " ^ reason
  | Mismatch { where; detail } -> Printf.sprintf "mismatch at %s: %s" where detail

exception Give_up of string

let give_up fmt = Printf.ksprintf (fun s -> raise (Give_up s)) fmt

(* --- Symbolic state ------------------------------------------------------ *)

type nv =
  | Scalar of Normal.t
  | Vec of Normal.t array
  | Ptr_to of int * Normal.t (* argument base position, i64 element index *)
  | Unset (* an environment slot not defined yet *)

type entry = {
  base : int;
  index : Normal.t;
  value : Normal.t;
  stored : bool; (* false = merge residue of an untouched location *)
  writer : Defs.instr option; (* last store, for pinpointing *)
}

(* Keyed by (operation, operand uids), hashed and compared as ints:
   a generic table would run the polymorphic hash and compare on
   every lookup. *)
module Pure = Hashtbl.Make (struct
  type t = int * int * int

  let equal ((t1, a1, b1) : t) ((t2, a2, b2) : t) = t1 = t2 && a1 = a2 && b1 = b2
  let hash ((t, a, b) : t) = (((a * 65599) + b) * 31) + t
end)

(* What the captures of one function can share, whichever pass ran in
   between: argument values, constants, scalar arithmetic and gep
   results keyed by the identity of their operands' sums, and the
   initial-content atom of each location.  Each is a function of its
   key alone, so sharing changes no value.  A capture of IR a pass left
   mostly unchanged then finds instead of builds, and equal values
   come out as the same sums, so later comparisons are pointer
   checks. *)
type cache = {
  mutable args : nv option array; (* by argument position *)
  small_ints : nv option array; (* i64 constants 0..63 *)
  consts : (Ty.scalar * Lit.t, nv) Hashtbl.t; (* every other scalar constant *)
  pure : nv Pure.t; (* (operation, operand uids) -> result *)
  initial : (string, Normal.t) Hashtbl.t; (* by location key *)
}

let cache () =
  {
    args = [||];
    small_ints = Array.make 64 None;
    consts = Hashtbl.create 16;
    pure = Pure.create 128;
    initial = Hashtbl.create 64;
  }

type state = {
  env : nv array array;
      (* iid -> symbolic value, in chunks of [env_chunk]: blocks that
         small are allocated young, so the values written into them
         die young too, rather than every one being remembered and
         promoted as stores into one large (major-heap) array would
         have them *)
  mutable mem : (string, entry) Hashtbl.t;
  mutable cells : (string, Normal.t) Hashtbl.t;
      (* initial-content atoms already materialised, by location key:
         pre-CSE IR re-loads the same cell many times *)
  mutable budget : int; (* executed blocks; guards against cycles *)
  headers : (int, (Loops.counted * bool, string) result) Hashtbl.t;
      (* loop-header bid -> recognition result (bool = strict) *)
  cut : (int * int, unit) Hashtbl.t; (* back edges (latch bid, header bid) *)
  mutable tainted : Int_set.t; (* arg bases written by a symbolic loop *)
  mutable summaries : string list; (* canonical per-loop summary keys *)
  shared : cache;
}

let loc_prefix = Array.init 16 (fun base -> string_of_int base ^ "|")

let loc_key base (index : Normal.t) =
  let prefix = if base < 16 then loc_prefix.(base) else string_of_int base ^ "|" in
  prefix ^ Normal.skey index

let loc_to_string (e : entry) =
  Printf.sprintf "arg%d[%s]" e.base (Normal.to_string e.index)

(* Lane offsets are tiny non-negative ints; share the sums. *)
let idx_memo = Array.init 16 (fun n -> Normal.of_lit Ty.I64 (Lit.int n))

let idx knd n =
  let s = if n >= 0 && n < 16 then idx_memo.(n) else Normal.of_lit Ty.I64 (Lit.int n) in
  Normal.retype knd s

(* --- Values -------------------------------------------------------------- *)

let env_chunk = 128

let env_make n = Array.init ((n + env_chunk - 1) / env_chunk) (fun _ -> Array.make env_chunk Unset)

let env_get (st : state) iid =
  let c = iid / env_chunk in
  if iid >= 0 && c < Array.length st.env then st.env.(c).(iid mod env_chunk) else Unset

let env_set (st : state) iid v = st.env.(iid / env_chunk).(iid mod env_chunk) <- v

let nv_of (st : state) (v : Defs.value) : nv =
  match v with
  | Defs.Const { ty; lit } -> (
      if Ty.is_vector ty then give_up "vector constant";
      let knd = Ty.elem ty in
      match lit with
      | Lit.Int n when Ty.scalar_equal knd Ty.I64 && Int64.compare n 0L >= 0 && Int64.compare n 64L < 0
        -> (
          let k = Int64.to_int n in
          match st.shared.small_ints.(k) with
          | Some v -> v
          | None ->
              let v = Scalar (Normal.of_lit knd lit) in
              st.shared.small_ints.(k) <- Some v;
              v)
      | _ -> (
          match Hashtbl.find st.shared.consts (knd, lit) with
          | v -> v
          | exception Not_found ->
              let v = Scalar (Normal.of_lit knd lit) in
              Hashtbl.replace st.shared.consts (knd, lit) v;
              v))
  | Defs.Undef ty ->
      if Ty.is_vector ty then
        Vec (Array.init (Ty.lanes ty) (fun _ -> Normal.undef (Ty.elem ty)))
      else Scalar (Normal.undef (Ty.elem ty))
  | Defs.Arg a -> (
      (* Every address recomputes from its base pointer and index
         arguments, so build each argument's value once. *)
      match st.shared.args.(a.Defs.arg_pos) with
      | Some v -> v
      | None ->
          let v =
            match a.Defs.arg_ty with
            | Ty.Ptr _ -> Ptr_to (a.Defs.arg_pos, Normal.zero Ty.I64)
            | Ty.Scalar s -> Scalar (Normal.of_atom s (Normal.Arg a.Defs.arg_pos))
            | Ty.Vector _ -> give_up "vector argument"
          in
          st.shared.args.(a.Defs.arg_pos) <- Some v;
          v)
  | Defs.Instr i -> (
      match env_get st i.Defs.iid with
      | Unset -> give_up "use of %%%s before its definition" i.Defs.iname
      | v -> v)

let scalar_of st v =
  match nv_of st v with
  | Scalar s -> s
  | Vec _ -> give_up "expected a scalar value"
  | Ptr_to _ | Unset -> give_up "pointer used as a scalar"

let lanes_of st v ~lanes =
  match nv_of st v with
  | Vec a when Array.length a = lanes -> a
  | Vec _ -> give_up "lane count mismatch"
  | Scalar s when lanes = 1 -> [| s |]
  | Scalar _ | Ptr_to _ | Unset -> give_up "expected a vector value"

let addr_of st v =
  match nv_of st v with
  | Ptr_to (base, index) -> (base, Normal.retype Ty.I64 index)
  | Scalar _ | Vec _ | Unset -> give_up "address is not a pointer"

let lane_const (v : Defs.value) =
  match Value.as_const_int v with Some l -> l | None -> give_up "non-constant lane index"

(* --- Memory -------------------------------------------------------------- *)

(* Reads and writes of a buffer a symbolic loop has written would
   reuse [Cell] atoms across the loop (iteration-entry content vs
   final content) — unsound, so they leave the fragment. *)
let check_taint (st : state) base what =
  if Int_set.mem base st.tainted then
    give_up "%s of arg%d after a symbolic-trip loop wrote it" what base

let read (st : state) knd base index =
  check_taint st base "read";
  let key = loc_key base index in
  match Hashtbl.find_opt st.mem key with
  | Some e -> e.value
  | None -> (
      match Hashtbl.find_opt st.cells key with
      | Some v when Ty.scalar_equal v.Normal.knd knd -> v
      | _ ->
          let v = Normal.of_atom knd (Normal.Cell { base; index }) in
          Hashtbl.replace st.cells key v;
          v)

let write (st : state) (i : Defs.instr) base index value =
  check_taint st base "store";
  Hashtbl.replace st.mem (loc_key base index)
    { base; index; value; stored = true; writer = Some i }

(* --- Instructions --------------------------------------------------------- *)

(* A result that depends only on the sums [a] and [b] and the
   operation [tag]: found in the cache, or built by [f] and kept. *)
let pure (st : state) tag (a : Normal.t) (b : Normal.t) f =
  let key = (tag, a.Normal.uid, b.Normal.uid) in
  match Pure.find st.shared.pure key with
  | v -> v
  | exception Not_found ->
      let v = f a b in
      Pure.add st.shared.pure key v;
      v

let binop_tag = function Defs.Add -> 0 | Defs.Sub -> 1 | Defs.Mul -> 2 | Defs.Div -> 3
let scalar_binop b x y = Scalar (Normal.binop b x y)

let rec exec_instr (st : state) (i : Defs.instr) : unit =
  match i.Defs.op with
  | Defs.Store -> exec_store st i
  | _ -> env_set st i.Defs.iid (eval st i)

and exec_store st (i : Defs.instr) =
  let v = i.Defs.ops.(0) in
  let base, index = addr_of st i.Defs.ops.(1) in
  let n = Ty.lanes (Value.ty v) in
  if n = 1 then write st i base index (scalar_of st v)
  else
    Array.iteri
      (fun k lane -> write st i base (Normal.add index (idx Ty.I64 k)) lane)
      (lanes_of st v ~lanes:n)

(* The value of a non-store instruction, built without an option or a
   closure per instruction. *)
and eval (st : state) (i : Defs.instr) : nv =
  let knd = Ty.elem i.Defs.ty in
  let lanes = Ty.lanes i.Defs.ty in
  match i.Defs.op with
  | Defs.Binop b ->
      if Ty.is_vector i.Defs.ty then
        let x = lanes_of st i.Defs.ops.(0) ~lanes and y = lanes_of st i.Defs.ops.(1) ~lanes in
        Vec (Array.map2 (Normal.binop b) x y)
      else
        pure st (binop_tag b) (scalar_of st i.Defs.ops.(0)) (scalar_of st i.Defs.ops.(1))
          (scalar_binop b)
  | Defs.Alt_binop kinds ->
      let x = lanes_of st i.Defs.ops.(0) ~lanes and y = lanes_of st i.Defs.ops.(1) ~lanes in
      Vec (Array.mapi (fun k xl -> Normal.binop kinds.(k) xl y.(k)) x)
  | Defs.Gep -> (
      match nv_of st i.Defs.ops.(0) with
      | Ptr_to (base, index) ->
          pure st (4 + base) (Normal.retype Ty.I64 index)
            (Normal.retype Ty.I64 (scalar_of st i.Defs.ops.(1)))
            (fun index off -> Ptr_to (base, Normal.add index off))
      | Scalar _ | Vec _ | Unset -> give_up "address is not a pointer")
  | Defs.Load ->
      let base, index = addr_of st i.Defs.ops.(0) in
      if Ty.is_vector i.Defs.ty then
        Vec (Array.init lanes (fun k -> read st knd base (Normal.add index (idx Ty.I64 k))))
      else Scalar (read st knd base index)
  | Defs.Store -> Unset
  | Defs.Insert ->
      let vec =
        match nv_of st i.Defs.ops.(0) with
        | Vec a -> Array.copy a
        | Scalar _ | Ptr_to _ | Unset -> give_up "insert into a non-vector"
      in
      let l = lane_const i.Defs.ops.(2) in
      if l < 0 || l >= Array.length vec then give_up "insert lane out of range";
      vec.(l) <- scalar_of st i.Defs.ops.(1);
      Vec vec
  | Defs.Extract ->
      let src = lanes_of st i.Defs.ops.(0) ~lanes:(Ty.lanes (Value.ty i.Defs.ops.(0))) in
      let l = lane_const i.Defs.ops.(1) in
      if l < 0 || l >= Array.length src then give_up "extract lane out of range";
      Scalar src.(l)
  | Defs.Shuffle mask ->
      let n = Ty.lanes (Value.ty i.Defs.ops.(0)) in
      let v1 = lanes_of st i.Defs.ops.(0) ~lanes:n and v2 = lanes_of st i.Defs.ops.(1) ~lanes:n in
      Vec
           (Array.map
              (fun m ->
                if m < 0 || m >= 2 * n then give_up "shuffle mask out of range"
                else if m < n then v1.(m)
                else v2.(m - n))
              mask)
  | Defs.Icmp c ->
      let nx = Ty.lanes (Value.ty i.Defs.ops.(0)) in
      if nx = 1 then
        Scalar (Normal.icmp knd c (scalar_of st i.Defs.ops.(0)) (scalar_of st i.Defs.ops.(1)))
      else
        let x = lanes_of st i.Defs.ops.(0) ~lanes:nx and y = lanes_of st i.Defs.ops.(1) ~lanes:nx in
        Vec (Array.map2 (Normal.icmp knd c) x y)
  | Defs.Fcmp c ->
      let nx = Ty.lanes (Value.ty i.Defs.ops.(0)) in
      if nx = 1 then
        Scalar (Normal.fcmp knd c (scalar_of st i.Defs.ops.(0)) (scalar_of st i.Defs.ops.(1)))
      else
        let x = lanes_of st i.Defs.ops.(0) ~lanes:nx and y = lanes_of st i.Defs.ops.(1) ~lanes:nx in
        Vec (Array.map2 (Normal.fcmp knd c) x y)
  | Defs.Select ->
      if lanes = 1 then
        let cond = scalar_of st i.Defs.ops.(0) in
        Scalar (Normal.select ~cond (scalar_of st i.Defs.ops.(1)) (scalar_of st i.Defs.ops.(2)))
      else
        let conds =
          if Ty.is_vector (Value.ty i.Defs.ops.(0)) then lanes_of st i.Defs.ops.(0) ~lanes
          else Array.make lanes (scalar_of st i.Defs.ops.(0))
        in
        let t = lanes_of st i.Defs.ops.(1) ~lanes and e = lanes_of st i.Defs.ops.(2) ~lanes in
        Vec (Array.init lanes (fun k -> Normal.select ~cond:conds.(k) t.(k) e.(k)))
  | Defs.Phi _ ->
      (* Induction phis of recognized counted loops are bound by
         [exec_loop] and never reach here; any other phi carries a
         value around an irregular cycle the executor cannot model. *)
      give_up "phi %%%s outside any recognized counted-loop header" i.Defs.iname

(* --- Control flow --------------------------------------------------------- *)

(* Blocks reachable from [b] (inclusive), by bid, without following
   loop back edges — join-finding must run on the acyclic CFG. *)
let reachable (st : state) (b : Defs.block) : (int, Defs.block) Hashtbl.t =
  let seen = Hashtbl.create 8 in
  let rec go b =
    if not (Hashtbl.mem seen b.Defs.bid) then begin
      Hashtbl.replace seen b.Defs.bid b;
      List.iter
        (fun (s : Defs.block) ->
          if not (Hashtbl.mem st.cut (b.Defs.bid, s.Defs.bid)) then go s)
        (Block.successors b)
    end
  in
  go b;
  seen

(* The join of a conditional: the unique common reachable block from
   which every other common block is still reachable (the earliest
   common point on a DAG).  [None] when the arms never meet again. *)
let find_join (st : state) (t : Defs.block) (e : Defs.block) : Defs.block option =
  let rt = reachable st t and re = reachable st e in
  let common =
    Hashtbl.fold (fun bid b acc -> if Hashtbl.mem re bid then (bid, b) :: acc else acc) rt []
  in
  match common with
  | [] -> None
  | _ -> (
      let is_join (_, j) =
        let rj = reachable st j in
        List.for_all (fun (bid, _) -> Hashtbl.mem rj bid) common
      in
      match List.filter is_join common with
      | [ (_, j) ] -> Some j
      | [] -> give_up "conditional arms re-join ambiguously"
      | joins ->
          (* Several candidates can only happen on a cycle. *)
          give_up "cyclic control flow (%d join candidates)" (List.length joins))

let merge_memories (st : state) cond (mem0 : (string, entry) Hashtbl.t) mt me =
  let merged = Hashtbl.create (Hashtbl.length mt) in
  let resolve (side : entry option) (other : entry) =
    match side with
    | Some e -> e
    | None -> (
        (* Untouched by this arm: the pre-branch content. *)
        match Hashtbl.find_opt mem0 (loc_key other.base other.index) with
        | Some e -> e
        | None ->
            {
              other with
              value = Normal.of_atom other.value.Normal.knd
                  (Normal.Cell { base = other.base; index = other.index });
              stored = false;
              writer = None;
            })
  in
  let visit key (any : entry) =
    if not (Hashtbl.mem merged key) then begin
      let et = Hashtbl.find_opt mt key and ee = Hashtbl.find_opt me key in
      let t = resolve et any and e = resolve ee any in
      let entry =
        if Normal.equal t.value e.value then
          { any with value = t.value; stored = t.stored || e.stored;
            writer = (if t.stored then t.writer else e.writer) }
        else
          {
            any with
            value = Normal.select ~cond t.value e.value;
            stored = true;
            writer = (match (t.writer, e.writer) with Some w, _ | None, Some w -> Some w | _ -> None);
          }
      in
      Hashtbl.replace merged key entry
    end
  in
  Hashtbl.iter visit mt;
  Hashtbl.iter visit me;
  st.mem <- merged

let max_blocks = 10_000

(* Trips a *constant*-count loop is re-executed for; beyond this the
   function leaves the fragment (sound: [Unknown]). *)
let concrete_trip_cap = 4096

let rec exec_from (st : state) (b : Defs.block) ~(stop : Defs.block option) : unit =
  match stop with
  | Some s when Block.equal s b -> ()
  | _ -> (
      match Hashtbl.find_opt st.headers b.Defs.bid with
      | Some (Ok (c, strict)) -> exec_loop st c ~strict ~stop
      | Some (Error reason) -> give_up "unsupported loop at %s: %s" b.Defs.bname reason
      | None ->
          st.budget <- st.budget - 1;
          if st.budget <= 0 then give_up "control flow too large or cyclic";
          Block.iter (exec_instr st) b;
          (match b.Defs.term with
          | Defs.Ret -> ()
          | Defs.Unterminated -> give_up "unterminated block %s" b.Defs.bname
          | Defs.Br next -> exec_from st next ~stop
          | Defs.Cond_br (c, t, e) ->
              let cond = scalar_of st c in
              let join = find_join st t e in
              let mem0 = st.mem in
              st.mem <- Hashtbl.copy mem0;
              exec_from st t ~stop:join;
              let mt = st.mem in
              st.mem <- Hashtbl.copy mem0;
              exec_from st e ~stop:join;
              let me = st.mem in
              merge_memories st cond mem0 mt me;
              (match join with Some j -> exec_from st j ~stop | None -> ())))

(* A recognized counted loop.  Constant trip: execute concretely, one
   body pass per iteration with the iv bound to its constant — the
   final memory is exactly what any (partial/full/jammed) unrolling
   reaches.  Symbolic trip in the strict form: summarize one abstract
   iteration.  Symbolic trip in the relaxed form only: values escape
   the loop, so the induction argument does not close — give up. *)
and exec_loop (st : state) (c : Loops.counted) ~(strict : bool)
    ~(stop : Defs.block option) : unit =
  let header = c.Loops.loop.Loops.header in
  let knd = Ty.elem c.Loops.iv.Defs.ty in
  let init_n = scalar_of st c.Loops.init in
  let bound_n = scalar_of st c.Loops.bound in
  let set_iv n = env_set st c.Loops.iv.Defs.iid (Scalar n) in
  (match (Normal.as_const init_n, Normal.as_const bound_n) with
  | Some (Normal.C_int i0), Some (Normal.C_int bnd) ->
      let rec trips iv n =
        st.budget <- st.budget - 1;
        if st.budget <= 0 then give_up "control flow too large or cyclic";
        if n > concrete_trip_cap then
          give_up "loop at %s runs beyond the validator's %d-trip cap" header.Defs.bname
            concrete_trip_cap;
        set_iv (Normal.of_lit knd (Lit.Int iv));
        exec_instr st c.Loops.cond;
        if Arith.cmp_int c.Loops.cmp iv bnd then begin
          exec_from st c.Loops.body_entry ~stop:(Some header);
          trips (Int64.add iv c.Loops.step) (n + 1)
        end
      in
      trips i0 0
  | _ ->
      if not strict then
        give_up
          "symbolic trip count at %s in a non-inductive loop form (values escape the loop)"
          header.Defs.bname
      else summarize st c ~knd ~init_n ~bound_n);
  exec_from st c.Loops.exit ~stop

(* One abstract iteration: iv bound to the canonical [$iv] atom,
   fresh memory, body executed once.  The resulting parametric store
   footprint — together with init, bound, cmp and step — is the
   loop's transformer: two loops with equal summaries map equal
   states to equal states at every iteration, so induction over the
   identical trip sequence proves them equivalent. *)
and summarize (st : state) (c : Loops.counted) ~knd ~init_n ~bound_n : unit =
  let header = c.Loops.loop.Loops.header in
  set_iv_atom st c knd;
  let outer_mem = st.mem and outer_cells = st.cells in
  st.mem <- Hashtbl.create 16;
  st.cells <- Hashtbl.create 16;
  let restore () =
    let m = st.mem and cl = st.cells in
    st.mem <- outer_mem;
    st.cells <- outer_cells;
    (m, cl)
  in
  (try
     exec_instr st c.Loops.cond;
     exec_from st c.Loops.body_entry ~stop:(Some header)
   with e ->
     ignore (restore ());
     raise e);
  let iter_mem, iter_cells = restore () in
  let stores =
    Hashtbl.fold
      (fun _ (e : entry) acc ->
        if e.stored then
          Printf.sprintf "%d[%s]=%s" e.base (Normal.skey e.index) (Normal.skey e.value) :: acc
        else acc)
      iter_mem []
    |> List.sort String.compare
  in
  let written =
    Hashtbl.fold
      (fun _ (e : entry) s -> if e.stored then Int_set.add e.base s else s)
      iter_mem Int_set.empty
  in
  let base_of_key key =
    match String.index_opt key '|' with
    | Some i -> int_of_string (String.sub key 0 i)
    | None -> -1
  in
  let touched =
    Hashtbl.fold (fun key _ s -> Int_set.add (base_of_key key) s) iter_cells written
  in
  (* A base the summary touches must carry no earlier straight-line
     stores: the iteration read iteration-entry [Cell] atoms, which
     only denote the *initial* content when nothing was stored
     before. *)
  Hashtbl.iter
    (fun _ (e : entry) ->
      if e.stored && Int_set.mem e.base touched then
        give_up
          "symbolic-trip loop at %s touches arg%d, already stored to before the loop"
          header.Defs.bname e.base)
    st.mem;
  st.tainted <- Int_set.union st.tainted written;
  let summary =
    Printf.sprintf "loop(%s;%s;%s;%s;%Ld){%s}" (Ty.scalar_to_string knd)
      (Normal.skey init_n) (Defs.cmp_to_string c.Loops.cmp) (Normal.skey bound_n)
      c.Loops.step
      (String.concat ";" stores)
  in
  st.summaries <- summary :: st.summaries

and set_iv_atom st (c : Loops.counted) knd =
  env_set st c.Loops.iv.Defs.iid (Scalar (Normal.opaque knd "$iv" []))

type effects = {
  emem : (string, entry) Hashtbl.t;
  esummaries : string list; (* sorted canonical loop-summary keys *)
  etainted : Int_set.t; (* bases written by symbolic-trip loops *)
}

let exec ~cache (f : Defs.func) : effects =
  if Array.length cache.args <> Array.length f.Defs.fargs then
    cache.args <- Array.make (Array.length f.Defs.fargs) None;
  let st =
    {
      env = env_make f.Defs.next_iid;
      mem = Hashtbl.create 32;
      cells = cache.initial;
      budget = max_blocks;
      headers = Hashtbl.create 4;
      cut = Hashtbl.create 4;
      tainted = Int_set.empty;
      summaries = [];
      shared = cache;
    }
  in
  (match f.Defs.blocks with
  | [] | [ _ ] -> () (* straight-line: skip the loop analysis *)
  | _ ->
      let forest = Loops.analyze f in
      List.iter
        (fun (l : Loops.loop) ->
          List.iter
            (fun (latch : Defs.block) ->
              Hashtbl.replace st.cut (latch.Defs.bid, l.Loops.header.Defs.bid) ())
            l.Loops.latches;
          Hashtbl.replace st.headers l.Loops.header.Defs.bid (Loops.recognize l))
        forest.Loops.loops);
  exec_from st (Func.entry f) ~stop:None;
  { emem = st.mem; esummaries = List.sort String.compare st.summaries; etainted = st.tainted }

(* --- Comparison ------------------------------------------------------------ *)

let truncate s = if String.length s > 160 then String.sub s 0 157 ^ "..." else s

let where_of (e : entry) =
  match e.writer with Some i -> Instr.to_string i | None -> loc_to_string e

(* A captured side of a comparison: the symbolic memory (and loop
   summaries) a function leaves behind, or the reason it fell outside
   the supported fragment.  Capturing once and comparing many times
   is what makes per-pass validation affordable — the IR a pass
   produces is the IR the next pass receives, so the pipeline chains
   snapshots instead of re-executing both sides at every step. *)
type snapshot = (effects, string) result

let capture ~cache (f : Defs.func) : snapshot =
  match exec ~cache f with
  | eff -> Ok eff
  | exception Give_up reason -> Error reason
  | exception Normal.Too_big -> Error "normal form too large"
  | exception Invalid_argument reason -> Error reason
  | exception Not_found -> Error "internal lookup failure"

(* The semantic digest: one hex string per observable behaviour.  Two
   functions that store the same normal forms to the same symbolic
   locations — and whose symbolic loops have the same per-iteration
   summaries — fold to the same line set and therefore the same
   digest, which is exactly the equivalence [compare_snapshots]
   decides pairwise.  A summary line contains the loop's init, bound,
   cmp, step and full parametric footprint, so two genuinely
   different symbolic loops never share.  [None] when the function
   fell outside the supported fragment or a stored form's key would
   be too large: an [Unknown] snapshot has no canonical form, so it
   must never share a digest. *)
let snapshot_digest (s : snapshot) : string option =
  match s with
  | Error _ -> None
  | Ok eff -> (
      match
        Hashtbl.fold
          (fun key (e : entry) acc ->
            if e.stored then (key ^ "=" ^ Normal.skey e.value) :: acc else acc)
          eff.emem
          (List.map (fun s -> "loop|" ^ s) eff.esummaries)
      with
      | exception Normal.Too_big -> None
      | lines ->
          let buf = Buffer.create 256 in
          List.iter
            (fun l ->
              Buffer.add_string buf l;
              Buffer.add_char buf '\n')
            (List.sort String.compare lines);
          Some (Digest.to_hex (Digest.string (Buffer.contents buf))))

(* [compare_snapshots pre post] validates that [post] stores the same
   normal forms to the same locations as [pre].  Divergent loop
   summaries are inductively inconclusive — the per-iteration
   footprints are an abstraction, so a difference is [Unknown], never
   [Mismatch]; likewise any difference on a buffer a symbolic loop
   wrote. *)
let compare_stored ?(tolerance = 1e-6) (pre : snapshot) (post : snapshot) : verdict =
  match (pre, post) with
  | Error reason, _ -> Unknown (Printf.sprintf "input side: %s" reason)
  | _, Error reason -> Unknown (Printf.sprintf "output side: %s" reason)
  | Ok epre, Ok epost ->
      if epre.esummaries <> epost.esummaries then
        Unknown "loop summaries differ (inductive comparison inconclusive)"
      else (
        let tainted = Int_set.union epre.etainted epost.etainted in
        let mpre = epre.emem and mpost = epost.emem in
        let stored m = Hashtbl.fold (fun k e acc -> if e.stored then (k, e) :: acc else acc) m [] in
        let verdict = ref Valid in
        let fail (e : entry) where detail =
          if Int_set.mem e.base tainted then (
            match !verdict with
            | Valid -> verdict := Unknown (Printf.sprintf "%s (loop-written buffer)" detail)
            | _ -> ())
          else
            match !verdict with Mismatch _ -> () | _ -> verdict := Mismatch { where; detail }
        in
        List.iter
          (fun (k, (e : entry)) ->
            match Hashtbl.find_opt mpost k with
            | Some e' when e'.stored ->
                if
                  not
                    (Normal.same e.value e'.value
                    || Normal.close ~tol:tolerance e.value e'.value)
                then
                  fail e' (where_of e')
                    (Printf.sprintf "%s: stored value differs: %s vs %s" (loc_to_string e)
                       (truncate (Normal.to_string e.value))
                       (truncate (Normal.to_string e'.value)))
            | _ ->
                fail e (where_of e)
                  (Printf.sprintf "%s: stored only by the input side" (loc_to_string e)))
          (stored mpre);
        List.iter
          (fun (k, (e : entry)) ->
            if not (match Hashtbl.find_opt mpre k with Some e0 -> e0.stored | None -> false) then
              fail e (where_of e)
                (Printf.sprintf "%s: stored only by the output side" (loc_to_string e)))
          (stored mpost);
        !verdict)

(* Comparing reads the stored forms' keys, which may be too large. *)
let compare_snapshots ?tolerance pre post =
  try compare_stored ?tolerance pre post with Normal.Too_big -> Unknown "normal form too large"

let compare_funcs ?tolerance (pre : Defs.func) (post : Defs.func) : verdict =
  compare_snapshots ?tolerance (capture ~cache:(cache ()) pre) (capture ~cache:(cache ()) post)
