(* The translation validator's normal form: a canonical signed
   multiset, concretely a sum of products.

   A value is [const + Σ ck · (a1·a2·…/b1·b2·…)]: a constant plus
   coefficiented products of atoms, with atoms in the denominator for
   accumulated division.  Normalization flattens add/sub chains into
   the term list (a subtracted occurrence is a negated coefficient —
   the paper's Minus APO) and mul/div chains into the factor lists
   (a divided occurrence is a denominator atom — the reciprocal APO),
   so any reassociation or sign-preserving redistribution the
   vectorizer performs on an operator family maps to the same form.
   Terms are kept sorted by their product key and like products merge
   by adding coefficients, which is what makes the form canonical.

   Atoms are the leaves the analysis cannot see through: arguments,
   initial memory cells, comparison/select results (kept structurally,
   with constant conditions folded exactly like the fold pass), and
   whole sums appearing as denominators.  Products of multi-term sums
   are distributed.  The term count of every sum is capped, and
   overflowing the cap raises {!Too_big}, which the validator reports
   as [Unknown].  So does a key past {!max_key_bytes}: an atom's key
   spells out its arguments' keys, so selects nested by sequential
   if/else arms would otherwise grow keys exponentially while the
   values share structure.

   Constant folding uses the IR's scalar semantics ({!Arith}: int64
   wrap, f32 per-operation rounding); because symbolic folding may group
   float constants differently than the concrete pass did, the
   comparison entry point {!close} accepts coefficients within a
   relative tolerance on top of exact (bitwise) equality. *)

open Snslp_ir

exception Too_big

type coeff = C_int of int64 | C_float of float

type t = {
  knd : Ty.scalar;
  const : coeff;
  terms : term list;
  mutable skey_memo : string option;
      (* canonical key, computed on first demand: a [lazy] would
         allocate a closure per sum, and most sums are intermediates
         whose key is never consulted *)
  uid : int;
}

and term = { tc : coeff; tp : prod }
and prod = { pkey : string; pos : atom list; neg : atom list }
and atom = { akey : string; view : view }

and view =
  | Arg of int  (* scalar argument, by position *)
  | Cell of { base : int; index : t }  (* initial memory: arg pos + element index *)
  | Opaque of { tag : string; args : t list }  (* cmp/select, structural *)
  | Wrap of t  (* a multi-term sum used as a denominator *)
  | Undef_atom

(* --- Coefficient arithmetic (interpreter semantics) -------------------- *)

(* Index constants and integer coefficients are almost always small
   and non-negative; their keys come from a table rather than being
   formatted again for every key that contains them. *)
let small_int_keys = Array.init 1024 string_of_int

let c_key = function
  | C_int n when Int64.compare n 0L >= 0 && Int64.compare n 1024L < 0 ->
      small_int_keys.(Int64.to_int n)
  | C_int n -> Int64.to_string n
  | C_float f -> Printf.sprintf "f%Lx" (Int64.bits_of_float f)

(* Integer coefficients are computed unboxed, and the small ones
   (lane offsets, counts) are shared: each fresh [C_int] costs a block
   plus a boxed [int64]. *)
let small_c_ints = Array.init 1024 (fun n -> C_int (Int64.of_int n))

let c_int n =
  if Int64.compare n 0L >= 0 && Int64.compare n 1024L < 0 then small_c_ints.(Int64.to_int n)
  else C_int n

let c_zero k = if Ty.scalar_is_int k then C_int 0L else C_float 0.0
let c_one k = if Ty.scalar_is_int k then C_int 1L else C_float 1.0
let c_is_zero = function C_int n -> Int64.equal n 0L | C_float f -> f = 0.0

let c_float2 k op a b =
  match (a, b) with
  | C_float x, C_float y -> C_float (Arith.float_binop k op x y)
  | _ -> invalid_arg "Normal: mixed coefficient kinds"

let c_add k a b =
  match (a, b) with C_int x, C_int y -> c_int (Int64.add x y) | _ -> c_float2 k Defs.Add a b

let c_mul k a b =
  match (a, b) with C_int x, C_int y -> c_int (Int64.mul x y) | _ -> c_float2 k Defs.Mul a b

let c_div k a b =
  match (a, b) with
  | C_float x, C_float y -> C_float (Arith.float_binop k Defs.Div x y)
  | _ -> raise Too_big (* integer division is not in the IR *)

let c_neg = function C_int n -> c_int (Int64.neg n) | C_float f -> C_float (-.f)

(* Bitwise identity first (NaN-safe), then relative closeness for
   finite floats — absorbs grouping differences of symbolic versus
   concrete constant folding. *)
let c_close ~tol a b =
  match (a, b) with
  | C_int x, C_int y -> Int64.equal x y
  | C_float x, C_float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
      || Float.is_finite x && Float.is_finite y
         && Float.abs (x -. y) <= tol *. Float.max 1.0 (Float.max (Float.abs x) (Float.abs y))
  | _ -> false

(* --- Keys and construction --------------------------------------------- *)

(* Key building uses a [Buffer]/[^] rather than [Printf] — keys are
   built once per demanded sum and atom, but captures of large
   straight-line functions demand thousands of them.  No key longer
   than [max_key_bytes] is built: registry kernels' keys stay under
   400 bytes, generated kernels with nested selects reach megabytes. *)
let max_key_bytes = 65536

let bounded len = if len > max_key_bytes then raise Too_big

(* The length of [keys] joined by one-byte separators. *)
let joined_length keys = List.fold_left (fun n k -> n + 1 + String.length k) (-1) keys

let pkey_of pos neg =
  let part l =
    match l with
    | [ a ] -> a.akey
    | _ ->
        let keys = List.map (fun a -> a.akey) l in
        bounded (joined_length keys);
        String.concat "*" keys
  in
  match neg with
  | [] -> part pos
  | _ ->
      let p = part pos and n = part neg in
      bounded (String.length p + 1 + String.length n);
      p ^ "/" ^ n

let dot = "\xc2\xb7" (* '·' *)

(* Sized first and written once: the key of every address a capture
   loads from is built here. *)
let skey_of knd const terms =
  let kind = Ty.scalar_to_string knd and c = c_key const in
  let coeffs = List.map (fun t -> c_key t.tc) terms in
  let len =
    List.fold_left2
      (fun n t tc -> n + 1 + String.length tc + String.length dot + String.length t.tp.pkey)
      (String.length kind + 1 + String.length c)
      terms coeffs
  in
  bounded len;
  let b = Bytes.create len in
  let put pos s =
    Bytes.blit_string s 0 b pos (String.length s);
    pos + String.length s
  in
  let pos = put 0 kind in
  Bytes.set b pos ':';
  let pos = put (pos + 1) c in
  ignore
    (List.fold_left2
       (fun pos t tc ->
         Bytes.set b pos '+';
         put (put (put (pos + 1) tc) dot) t.tp.pkey)
       pos terms coeffs);
  Bytes.unsafe_to_string b

let skey s =
  match s.skey_memo with
  | Some k -> k
  | None ->
      let k = skey_of s.knd s.const s.terms in
      s.skey_memo <- Some k;
      k

let akey_of = function
  | Arg n -> "a" ^ string_of_int n
  | Cell { base; index } ->
      let b = string_of_int base and k = skey index in
      bounded (String.length b + String.length k + 3);
      "M" ^ b ^ "[" ^ k ^ "]"
  | Opaque { tag; args } ->
      let keys = List.map skey args in
      bounded (String.length tag + 2 + joined_length keys);
      tag ^ "(" ^ String.concat "," keys ^ ")"
  | Wrap s ->
      let k = skey s in
      bounded (String.length k + 2);
      "(" ^ k ^ ")"
  | Undef_atom -> "?"

let atom view = { akey = akey_of view; view }

(* [mk knd const terms] finalises a sum: zero-coefficient terms are
   dropped ([terms] must already be sorted by product key with no
   duplicates).  The canonical key is computed on demand ({!skey}) —
   the sums built while flattening an add/mul chain are intermediates
   whose key is never consulted, and computing it eagerly would make
   an n-term chain cost O(n^2) string building.

   No two sums share a uid.  Each domain takes uids from its own range
   and claims a fresh range from one shared counter only when it runs
   out, so domains compiling in parallel touch that counter once per
   [uid_range] sums rather than once per sum. *)
type uids = { mutable next : int; mutable stop : int }

let uid_range = 1 lsl 16
let next_range = Atomic.make 0
let uids = Domain.DLS.new_key (fun () -> { next = 0; stop = 0 })

let fresh_uid () =
  let u = Domain.DLS.get uids in
  if u.next = u.stop then begin
    u.next <- Atomic.fetch_and_add next_range uid_range;
    u.stop <- u.next + uid_range
  end;
  let uid = u.next in
  u.next <- uid + 1;
  uid

let mk knd const terms =
  let terms =
    if List.exists (fun t -> c_is_zero t.tc) terms then
      List.filter (fun t -> not (c_is_zero t.tc)) terms
    else terms
  in
  { knd; const; terms; skey_memo = None; uid = fresh_uid () }

let zero knd = mk knd (c_zero knd) []

let of_lit knd (l : Lit.t) =
  match l with Lit.Int n -> mk knd (c_int n) [] | Lit.Float f -> mk knd (C_float f) []

let of_atom knd view =
  let a = atom view in
  mk knd (c_zero knd) [ { tc = c_one knd; tp = { pkey = a.akey; pos = [ a ]; neg = [] } } ]

let undef knd = of_atom knd Undef_atom

let as_const s = match s.terms with [] -> Some s.const | _ -> None

(* --- Additive structure ------------------------------------------------- *)

let check_kind a b =
  if not (Ty.scalar_equal a.knd b.knd) then invalid_arg "Normal: mixed sum kinds"

let rec merge_terms k ta tb =
  match (ta, tb) with
  | [], t | t, [] -> t
  | x :: xs, y :: ys ->
      let c = compare x.tp.pkey y.tp.pkey in
      if c < 0 then x :: merge_terms k xs tb
      else if c > 0 then y :: merge_terms k ta ys
      else { x with tc = c_add k x.tc y.tc } :: merge_terms k xs ys

(* Adding an integer zero returns the other sum itself, the very form
   [mk] would rebuild: address arithmetic adds zero offsets all the
   time.  (A float zero can change the sign of a zero constant.) *)
let is_int_zero s = s.terms = [] && (match s.const with C_int n -> Int64.equal n 0L | C_float _ -> false)

(* Term cap: past this many terms a sum is declared out of scope
   ({!Too_big} -> validator [Unknown]) rather than wrapped, because a
   threshold-dependent representation would not be canonical under the
   reassociations the vectorizer performs.  It bounds every sum: each
   add re-merges the whole term list, so an uncapped chain of n adds
   costs O(n²) (one store of 8k loads took seconds to key), and a
   product of sums is capped before it is distributed. *)
let max_terms = 4096

let add a b =
  check_kind a b;
  if is_int_zero b then a
  else if is_int_zero a then b
  else
    let terms = merge_terms a.knd a.terms b.terms in
    if List.compare_length_with terms max_terms > 0 then raise Too_big;
    mk a.knd (c_add a.knd a.const b.const) terms

let neg a =
  mk a.knd (c_neg a.const) (List.map (fun t -> { t with tc = c_neg t.tc }) a.terms)

let sub a b = add a (neg b)

(* --- Multiplicative structure ------------------------------------------- *)

let merge_atoms la lb =
  List.merge (fun a b -> compare a.akey b.akey) la lb

(* Common factors of numerator and denominator cancel pairwise — the
   multiplicative counterpart of an inverse-element pair annihilating
   additively.  Like the rest of the form this treats arithmetic as a
   field (exact for the symbolic atoms, tolerance-backed for float
   rounding).  Both lists are sorted by atom key. *)
let rec cancel pos neg =
  match (pos, neg) with
  | [], _ | _, [] -> (pos, neg)
  | x :: xs, y :: ys ->
      let c = compare x.akey y.akey in
      if c = 0 then cancel xs ys
      else if c < 0 then
        let ps, ns = cancel xs neg in
        (x :: ps, ns)
      else
        let ps, ns = cancel pos ys in
        (ps, y :: ns)

(* A single term [c · pos/neg] as a sum, cancelling first; a fully
   cancelled product degenerates to the bare coefficient. *)
let prod_term k c pos neg =
  let pos, neg = cancel pos neg in
  if pos = [] && neg = [] then mk k c []
  else mk k (c_zero k) [ { tc = c; tp = { pkey = pkey_of pos neg; pos; neg } } ]

(* A constant times a constant is their product as {!Arith} computes
   it, so a float zero keeps its sign: [(1.0 - 1.0) * (1.0 - 1.5)] is
   -0.0, and a zero constant lands in the keys of the atoms above it. *)
let scale k c s =
  if s.terms = [] then mk k (c_mul k c s.const) []
  else if c_is_zero c then zero k
  else mk k (c_mul k c s.const) (List.map (fun t -> { t with tc = c_mul k c t.tc }) s.terms)

(* A sum as (coefficient, product-or-1) items, the constant first. *)
let items s = (s.const, None) :: List.map (fun t -> (t.tc, Some t.tp)) s.terms

let singleton k c = function
  | None -> mk k c []
  | Some p -> mk k (c_zero k) [ { tc = c; tp = p } ]

let mul a b =
  check_kind a b;
  let k = a.knd in
  if a.terms = [] then scale k a.const b
  else if b.terms = [] then scale k b.const a
  else
    match (a.terms, b.terms) with
    | [ x ], [ y ] when c_is_zero a.const && c_is_zero b.const ->
        (* Product of two single-product sums — the overwhelmingly
           common case (load * load in a reduction) — skips the
           distribution machinery. *)
        prod_term k (c_mul k x.tc y.tc)
          (merge_atoms x.tp.pos y.tp.pos)
          (merge_atoms x.tp.neg y.tp.neg)
    | _ -> begin
    if (1 + List.length a.terms) * (1 + List.length b.terms) > max_terms then raise Too_big;
    List.fold_left
      (fun acc (ca, pa) ->
        List.fold_left
          (fun acc (cb, pb) ->
            let c = c_mul k ca cb in
            let s =
              match (pa, pb) with
              | None, p | p, None -> singleton k c p
              | Some p, Some q ->
                  prod_term k c (merge_atoms p.pos q.pos) (merge_atoms p.neg q.neg)
            in
            add acc s)
          acc (items b))
      (zero k) (items a)
  end

let div a b =
  check_kind a b;
  let k = a.knd in
  match (b.terms, c_is_zero b.const) with
  | [], _ ->
      (* Division by a constant: scale every coefficient. *)
      mk k (c_div k a.const b.const)
        (List.map (fun t -> { t with tc = c_div k t.tc b.const }) a.terms)
  | [ d ], true ->
      (* Division by a single product: invert it into the factors. *)
      List.fold_left
        (fun acc (ca, pa) ->
          let base = match pa with None -> { pkey = ""; pos = []; neg = [] } | Some p -> p in
          add acc
            (prod_term k (c_div k ca d.tc) (merge_atoms base.pos d.tp.neg)
               (merge_atoms base.neg d.tp.pos)))
        (zero k) (items a)
  | _ ->
      (* Division by a genuine sum: the denominator becomes one atom. *)
      let w = atom (Wrap b) in
      List.fold_left
        (fun acc (ca, pa) ->
          let base = match pa with None -> { pkey = ""; pos = []; neg = [] } | Some p -> p in
          add acc (prod_term k ca base.pos (merge_atoms base.neg [ w ])))
        (zero k) (items a)

let binop (b : Defs.binop) x y =
  match b with Defs.Add -> add x y | Defs.Sub -> sub x y | Defs.Mul -> mul x y | Defs.Div -> div x y

(* --- Comparisons and select ---------------------------------------------- *)

let bool_const knd v = mk knd (C_int (if v then 1L else 0L)) []

let opaque knd tag args = of_atom knd (Opaque { tag; args })

let icmp knd (c : Defs.cmp) x y =
  match (as_const x, as_const y) with
  | Some (C_int a), Some (C_int b) -> bool_const knd (Arith.cmp_int c a b)
  | _ -> opaque knd ("icmp." ^ Defs.cmp_to_string c) [ x; y ]

let fcmp knd (c : Defs.cmp) x y =
  match (as_const x, as_const y) with
  | Some (C_float a), Some (C_float b) -> bool_const knd (Arith.cmp_float c a b)
  | _ -> opaque knd ("fcmp." ^ Defs.cmp_to_string c) [ x; y ]

(* [select ~cond t e] folds a constant condition with the fold pass's
   semantics (non-zero takes the true arm) and collapses equal arms —
   the shape the pre/post sides of an if-conversion must agree on. *)
let select ~cond t e =
  match as_const cond with
  | Some c -> if c_is_zero c then e else t
  | None ->
      if String.equal (skey t) (skey e) then t
      else opaque t.knd "select" [ cond; t; e ]

(* --- Kind coercion ------------------------------------------------------ *)

(* Address indices mix i32/i64 sums in principle; [retype] rebrands an
   integer sum so index arithmetic is uniformly i64.  Atoms keep their
   keys — only the sum-level kind (and key) changes. *)
let retype knd s =
  if Ty.scalar_equal knd s.knd then s
  else if Ty.scalar_is_int knd <> Ty.scalar_is_int s.knd then
    invalid_arg "Normal.retype: int/float coercion"
  else mk knd s.const s.terms

(* --- Equality ----------------------------------------------------------- *)

let equal a b = String.equal (skey a) (skey b)

(* Same kind, coefficients and products, compared in place: implies
   {!equal} without building either key. *)
let c_same a b =
  match (a, b) with
  | C_int x, C_int y -> Int64.equal x y
  | C_float x, C_float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> false

let same a b =
  a == b
  || Ty.scalar_equal a.knd b.knd
     && c_same a.const b.const
     && List.length a.terms = List.length b.terms
     && List.for_all2 (fun x y -> c_same x.tc y.tc && String.equal x.tp.pkey y.tp.pkey) a.terms b.terms

(* Structural comparison with coefficient tolerance: keys match
   exactly or the two sides agree atom-for-atom with close
   coefficients.  Term lists are compared in order — sound because the
   order is by product key, which does not involve top-level
   coefficients. *)
let rec close ~tol a b =
  equal a b
  || Ty.scalar_equal a.knd b.knd
     && c_close ~tol a.const b.const
     && List.length a.terms = List.length b.terms
     && List.for_all2
          (fun x y -> c_close ~tol x.tc y.tc && prod_close ~tol x.tp y.tp)
          a.terms b.terms

and prod_close ~tol p q =
  String.equal p.pkey q.pkey
  || List.length p.pos = List.length q.pos
     && List.length p.neg = List.length q.neg
     && List.for_all2 (atom_close ~tol) p.pos q.pos
     && List.for_all2 (atom_close ~tol) p.neg q.neg

and atom_close ~tol x y =
  String.equal x.akey y.akey
  ||
  match (x.view, y.view) with
  | Cell a, Cell b -> a.base = b.base && close ~tol a.index b.index
  | Opaque a, Opaque b ->
      String.equal a.tag b.tag
      && List.length a.args = List.length b.args
      && List.for_all2 (close ~tol) a.args b.args
  | Wrap a, Wrap b -> close ~tol a b
  | _ -> false

let to_string = skey
