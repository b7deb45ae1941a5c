(* Seeded request streams for the three workloads.

   The daemon only ever sees generated KernelC.  Each source is a
   registry kernel or a full-benchmark translation unit, parsed with
   [Frontend.parse], edited on the AST and printed back with
   [Ast.pp_kernel], whose output round-trips through the parser.  Three
   edits steer a request to a chosen cache level:

   - every store's right-hand side is multiplied by a literal
     coefficient unique to the variant, so no two variants share
     semantics.  The registry alone is not a cold stream: on a fresh
     server, 7 of its 26 kernels hit a sibling's entry semantically;
   - a renamed kernel prints the same IR modulo its name, so the daemon
     answers it from the structural index (hit-textual);
   - commuting the operands of some [+] and [*] nodes keeps the
     validator's canonical form but changes the printing
     (hit-semantic).  Each commuted request of a variant flips a
     different set of nodes, so it never repeats an earlier text and
     always pays the frontend plus [Validate.capture].

   Every request carries the status it is meant to get.  The warm-edit
   generator predicts it with a model of the daemon's LRU, so evictions
   and re-misses are part of the prediction. *)

open Snslp_frontend
module Registry = Snslp_kernels.Registry
module Fullbench = Snslp_kernels.Fullbench
module Semhash = Snslp_lint.Semhash

type kind = Cold | Resubmit | Renamed | Commuted | Edit

let kind_name = function
  | Cold -> "cold"
  | Resubmit -> "resubmit"
  | Renamed -> "renamed"
  | Commuted -> "commuted"
  | Edit -> "edit"

type base = {
  reg : Registry.t; (* loop stride and extent, for the output checks *)
  slack : int;
      (* buffer elements the checks allocate beyond the loop's extent:
         translation units shift their kernel doses by constants *)
  ast : Ast.kernel;
  commutable : bool;
      (* a commuted variant keeps the semantic cache key and changes
         the structural digest *)
}

type request = {
  mode : string;
  source : string; (* the KernelC text sent; no trailing newline *)
  expect : string;
      (* the text whose fresh compile the reply must equal: [source]
         itself, except for a semantic hit, which is answered with the
         cached compile of the variant's uncommuted text *)
  kind : kind;
  status : string; (* the reply status the request is meant to get *)
  variant : int; (* semantic identity: base x coefficient x mode *)
  base : base;
}

let frame_lines (r : request) =
  let lines = String.split_on_char '\n' r.source in
  Printf.sprintf "compile %s %d" r.mode (List.length lines) :: lines

let frame r = String.concat "\n" (frame_lines r) ^ "\n"

let print k = Fmt.str "%a" Ast.pp_kernel k

(* --- AST edits ------------------------------------------------------------ *)

let map_stores f (k : Ast.kernel) =
  let rec stmt (s : Ast.stmt) =
    match s.Ast.sdesc with
    | Ast.Store (a, idx, e) -> { s with Ast.sdesc = Ast.Store (a, idx, f a e) }
    | Ast.If (c, t, e) -> { s with Ast.sdesc = Ast.If (c, List.map stmt t, List.map stmt e) }
    | Ast.For fl ->
        { s with Ast.sdesc = Ast.For { fl with Ast.fbody = List.map stmt fl.Ast.fbody } }
    | Ast.Let _ -> s
  in
  { k with Ast.kbody = List.map stmt k.Ast.kbody }

(* Coefficient [j] in an array's element type.  Float coefficients
   have at most six significant digits, so [%g] prints them exactly and
   distinct [j] never print alike. *)
let coefficient (ty : Ast.base_ty) j : Ast.expr_desc =
  match ty with
  | Ast.Int_ty | Ast.Long_ty -> Ast.Int_lit (Int64.of_int (2 + j))
  | Ast.Float_ty | Ast.Double_ty ->
      Ast.Float_lit
        (float_of_int (1 + (j / 99999)) +. (float_of_int (1 + (j mod 99999)) /. 1e5))

let scaled (k : Ast.kernel) j =
  let elem a =
    List.find_map
      (fun (p : Ast.param) ->
        match p.Ast.pty with
        | Ast.Array_param t when String.equal p.Ast.pname a -> Some t
        | Ast.Array_param _ | Ast.Scalar_param _ -> None)
      k.Ast.kparams
  in
  map_stores
    (fun a (e : Ast.expr) ->
      let c = { e with Ast.desc = coefficient (Option.get (elem a)) j } in
      { e with Ast.desc = Ast.Binary (Ast.Mul, e, c) })
    k

(* Swap the operands of the [+] and [*] nodes whose number (operands
   before their parent, in store order) is a set bit of [mask]. *)
let commuted ~mask (k : Ast.kernel) =
  let n = ref 0 in
  let rec expr (e : Ast.expr) =
    match e.Ast.desc with
    | Ast.Binary (op, a, b) ->
        let a = expr a in
        let b = expr b in
        let flip =
          match op with
          | Ast.Add | Ast.Mul ->
              let bit = !n in
              incr n;
              bit < 62 && mask land (1 lsl bit) <> 0
          | Ast.Sub | Ast.Div -> false
        in
        { e with Ast.desc = (if flip then Ast.Binary (op, b, a) else Ast.Binary (op, a, b)) }
    | Ast.Unary (op, a) -> { e with Ast.desc = Ast.Unary (op, expr a) }
    | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Var _ | Ast.Index _ | Ast.Cmp _ -> e
  in
  map_stores (fun _ e -> expr e) k

(* --- Bases ------------------------------------------------------------------ *)

let parse_one src =
  match Frontend.parse src with
  | [ k ] -> k
  | ks -> failwith (Printf.sprintf "expected one kernel, found %d" (List.length ks))

(* Kernels outside the validator's fragment fall back to a structural
   cache key, so their commuted variants would miss. *)
let shares_semantic_key (k : Ast.kernel) =
  let v = scaled k 0 in
  let f0 = Frontend.compile_one (print v) in
  let f1 = Frontend.compile_one (print (commuted ~mask:1 v)) in
  let key f = Semhash.cache_key ~fingerprint:"" f in
  (match Semhash.of_func f0 with Semhash.Semantic _ -> true | Semhash.Structural _ -> false)
  && String.equal (key f0) (key f1)
  && not (String.equal (Semhash.structural_digest f0) (Semhash.structural_digest f1))

let base_of ?(slack = 64) ~commute (reg : Registry.t) =
  let ast = parse_one reg.Registry.source in
  { reg; slack; ast; commutable = commute && shares_semantic_key ast }

(* Registry kernels under this many instructions are the small ones;
   the rest (milc_mat_vec) join the translation units. *)
let small_limit = 400

let registry_split () =
  List.partition
    (fun (r : Registry.t) ->
      Snslp_ir.Func.num_instrs (Frontend.compile_one r.Registry.source) < small_limit)
    Registry.all

(* --- Streams ---------------------------------------------------------------- *)

(* The mode mix of cold-kernels and warm-edit.  No recorded traffic
   says how often each mode is asked for, so this is the simplest mix
   led by sn-slp: the paper's vectorizer takes two shares, and each
   mode it is compared with (global packing, avx512 with revec, o3)
   one.  Modes are dealt from this cycle rather than drawn, so every
   seed compiles the same (kernel, mode) mix and only the order and the
   coefficients vary. *)
let mode_cycle = [| "sn-slp"; "sn-slp+global"; "sn-slp"; "sn-slp@avx512+revec"; "o3" |]

let mode_at k = mode_cycle.(k mod Array.length mode_cycle)

(* cold-tu adds one loop-form kernel per round in this mode, so the
   loop re-canonicalisation passes, global packing and revec each run
   on every workload. *)
let loop_member = ("milc_mat_vec_loop", "sn-slp+global@avx512+revec")

let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

type stream = {
  prewarm : request list; (* sent during set-up *)
  round : int;
      (* requests per round: each base once on the cold workloads, as
         many as the working set has slots on warm-edit *)
  next : unit -> request;
}

(* Rounds of a seeded permutation of [entries]: every round holds each
   base once, in the mode [mode round] deals it, so whole rounds have
   the same size distribution on every seed. *)
let cold rng ~fresh ~coef (entries : (base * (int -> string)) list) =
  let pending = ref [] in
  let round = ref (Random.State.int rng (Array.length mode_cycle)) in
  let next () =
    if !pending = [] then begin
      incr round;
      pending := shuffle rng entries
    end;
    match !pending with
    | (b, mode) :: rest ->
        pending := rest;
        let variant = fresh () in
        let source = print (scaled b.ast (coef variant)) in
        { mode = mode !round; source; expect = source; kind = Cold; status = "miss"; variant; base = b }
    | [] -> invalid_arg "cold: no bases"
  in
  { prewarm = []; round = List.length entries; next }

(* The daemon's cache as the generator predicts it: LRU over variants,
   one clock tick per lookup hit or insertion, like [Cache]. *)
module Lru = struct
  type t = { cap : int; last : (int, int) Hashtbl.t; mutable clock : int }

  let create cap = { cap; last = Hashtbl.create (2 * cap); clock = 0 }
  let mem t v = Hashtbl.mem t.last v

  let touch t v =
    t.clock <- t.clock + 1;
    Hashtbl.replace t.last v t.clock

  let insert t v =
    (if Hashtbl.length t.last >= t.cap then
       let victim =
         Hashtbl.fold
           (fun v c acc -> match acc with Some (_, c') when c' <= c -> acc | _ -> Some (v, c))
           t.last None
       in
       Option.iter (fun (v, _) -> Hashtbl.remove t.last v) victim);
    touch t v
end

type slot = {
  sbase : base;
  smode : string;
  mutable v : int;
  mutable mask : int; (* the last commute mask sent for [v] *)
}

(* An edit-compile loop over a working set of half the cache.  No
   recorded traffic says how often each kind of request comes, so the
   four kinds take equal shares: exact resubmits, renames, commuted
   rewrites, and edits that replace a slot's variant with a fresh one.
   The stale variants the edits leave behind push the cache past its
   capacity. *)
let warm rng ~fresh ~coef ~capacity bases =
  let bases = Array.of_list bases in
  let nb = Array.length bases in
  let lru = Lru.create capacity in
  (* The same (kernel, mode) slots on every seed. *)
  let slots =
    Array.init (max 1 (capacity / 2)) (fun k ->
        { sbase = bases.(k mod nb); smode = mode_at (k + (k / nb)); v = fresh (); mask = 0 })
  in
  let text s = print (scaled s.sbase.ast (coef s.v)) in
  let req s kind status source expect =
    { mode = s.smode; source; expect; kind; status; variant = s.v; base = s.sbase }
  in
  let prewarm =
    Array.to_list
      (Array.map
         (fun s ->
           Lru.insert lru s.v;
           let t = text s in
           req s Cold "miss" t t)
         slots)
  in
  let lookup s =
    if Lru.mem lru s.v then (Lru.touch lru s.v; "hit-textual")
    else (Lru.insert lru s.v; "miss")
  in
  (* A commuted text of [s.v] no earlier request sent: masks only grow
     until the next edit. *)
  let rec commuted_text s orig =
    s.mask <- s.mask + 1;
    if s.mask >= 1 lsl 20 then None
    else
      let t = print (commuted ~mask:s.mask (scaled s.sbase.ast (coef s.v))) in
      if String.equal t orig then commuted_text s orig else Some t
  in
  let renames = ref 0 in
  let next () =
    let s = slots.(Random.State.int rng (Array.length slots)) in
    match Random.State.int rng 4 with
    | 0 ->
        s.v <- fresh ();
        s.mask <- 0;
        Lru.insert lru s.v;
        let t = text s in
        req s Edit "miss" t t
    | 1 ->
        incr renames;
        let name = Printf.sprintf "%s_r%d" s.sbase.ast.Ast.kname !renames in
        let t = print { (scaled s.sbase.ast (coef s.v)) with Ast.kname = name } in
        req s Renamed (lookup s) t t
    | roll -> (
        let orig = text s in
        (* A semantic hit needs the entry present; an absent one re-misses
           through an exact resubmit, so every entry is stored under its
           uncommuted printing. *)
        let commuted =
          if roll = 2 && s.sbase.commutable && Lru.mem lru s.v then commuted_text s orig
          else None
        in
        match commuted with
        | Some t ->
            Lru.touch lru s.v;
            req s Commuted "hit-semantic" t orig
        | None -> req s Resubmit (lookup s) orig orig)
  in
  { prewarm; round = Array.length slots; next }

type workload = {
  name : string;
  rate : float;
      (* requests per second this workload served on a 2-core x86 VM;
         --seconds S sizes the stream to about S seconds there, and
         every run of a seed sends the same requests *)
  trace_rounds : int; (* the stream length of a traced run *)
  setups : int; (* daemon set-ups per run; setup_s is their median *)
}

let workloads =
  [
    { name = "cold-kernels"; rate = 700.; trace_rounds = 60; setups = 15 };
    { name = "cold-tu"; rate = 8.; trace_rounds = 1; setups = 15 };
    { name = "warm-edit"; rate = 2000.; trace_rounds = 32; setups = 5 };
  ]

(* Streams are whole rounds. *)
let stream_length w s ~seconds =
  s.round * max 1 (Float.to_int (Float.round (seconds *. w.rate /. float_of_int s.round)))

let find name = List.find_opt (fun w -> String.equal w.name name) workloads

let make (w : workload) ~seed ~capacity =
  let rng = Random.State.make [| seed; Hashtbl.hash w.name |] in
  let offset = Random.State.int rng 50000 in
  let count = ref 0 in
  let fresh () =
    incr count;
    !count
  in
  let coef v = offset + v in
  let small, large = registry_split () in
  match w.name with
  | "cold-kernels" ->
      cold rng ~fresh ~coef
        (List.mapi (fun i r -> (base_of ~commute:false r, fun round -> mode_at (round + i))) small)
  | "cold-tu" ->
      let tus = List.map Fullbench.to_registry Fullbench.all @ large in
      let loop_name, loop_mode = loop_member in
      let loop = Option.get (Registry.find loop_name) in
      cold rng ~fresh ~coef
        ((base_of ~commute:false loop, fun _ -> loop_mode)
        :: List.map (fun r -> (base_of ~slack:4096 ~commute:false r, fun _ -> "sn-slp")) tus)
  | "warm-edit" -> warm rng ~fresh ~coef ~capacity (List.map (base_of ~commute:true) small)
  | name -> invalid_arg ("unknown workload " ^ name)
