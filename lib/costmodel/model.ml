(* Cost models.

   A model prices individual instructions; the vectorizer combines
   these into per-node savings (vector cost minus the scalar cost of
   the group it replaces) and vectorizes when the total is below the
   threshold (0, as in the paper).

   Two models are provided:

   - [paper]: the didactic model under which the paper's worked
     examples are computed — every vectorizable group saves 1, every
     gather costs 2, an alternating add/sub group costs 1 net.  With
     it our implementation reproduces the exact cost numbers of
     Figures 2 and 3 (0 vs −6, and +4 vs −6).

   - [x86]: a reciprocal-throughput-flavoured model of an SSE/AVX2
     class core (the paper's i5-6440HQ): cheap adds, pricier divides,
     per-lane insert/extract costs for gathers.  The performance
     simulator uses the same numbers, so compile-time predictions and
     simulated run time agree except where they shouldn't (gathers are
     deliberately priced optimistically at compile time, reproducing
     the paper's observation that LSLP sometimes loses to -O3). *)

open Snslp_ir

type op_class =
  | C_int_addsub
  | C_int_mul
  | C_fp_addsub
  | C_fp_mul
  | C_fp_div
  | C_load
  | C_store
  | C_cmp
  | C_select
  | C_gep
  | C_insert
  | C_extract
  | C_shuffle

type t = {
  name : string;
  scalar : op_class -> float; (* one scalar instruction *)
  vector : op_class -> lanes:int -> float; (* one whole-vector instruction *)
  alt : Target.t -> lanes:int -> fam_mul:bool -> float;
      (* one alternating-opcode vector instruction *)
  gather_lane : float; (* per-lane cost of packing scalars into a vector *)
  splat : float; (* broadcasting one scalar to all lanes *)
  extract : float; (* one extractelement for an external use *)
}

let class_of_binop (b : Defs.binop) (ty : Ty.t) : op_class =
  let fp = Ty.scalar_is_float (Ty.elem ty) in
  match (b, fp) with
  | (Defs.Add | Defs.Sub), false -> C_int_addsub
  | Defs.Mul, false -> C_int_mul
  | Defs.Div, false -> invalid_arg "class_of_binop: integer division"
  | (Defs.Add | Defs.Sub), true -> C_fp_addsub
  | Defs.Mul, true -> C_fp_mul
  | Defs.Div, true -> C_fp_div

let class_of_instr (i : Defs.instr) : op_class option =
  match i.Defs.op with
  | Defs.Binop b -> Some (class_of_binop b i.Defs.ty)
  | Defs.Alt_binop _ -> None (* priced via [alt] *)
  | Defs.Load -> Some C_load
  | Defs.Store -> Some C_store
  | Defs.Gep -> Some C_gep
  | Defs.Insert -> Some C_insert
  | Defs.Extract -> Some C_extract
  | Defs.Shuffle _ -> Some C_shuffle
  | Defs.Icmp _ | Defs.Fcmp _ -> Some C_cmp
  | Defs.Select -> Some C_select
  | Defs.Phi _ -> None (* resolved by register allocation; free *)

(* --- The didactic model of the paper's examples. ------------------- *)

let paper =
  {
    name = "paper";
    (* Geps are addressing arithmetic, folded into the memory access on
       x86; pricing them at 0 keeps group savings at the paper's
       "every vectorized group saves 1". *)
    scalar = (function C_gep -> 0.0 | _ -> 1.0);
    vector = (fun c ~lanes:_ -> match c with C_gep -> 0.0 | _ -> 1.0);
    (* Alternating group: +1 net for a 2-lane group whose scalars cost
       2, hence 3. *)
    alt = (fun _ ~lanes ~fam_mul:_ -> float_of_int (lanes + 1));
    gather_lane = 1.0;
    splat = 1.0;
    extract = 1.0;
  }

(* --- SSE/AVX2-flavoured model. ------------------------------------- *)

let x86_scalar = function
  | C_int_addsub -> 1.0
  | C_int_mul -> 3.0
  | C_fp_addsub -> 1.0
  | C_fp_mul -> 1.5
  | C_fp_div -> 7.0
  | C_load -> 1.0
  | C_store -> 1.0
  | C_cmp -> 1.0
  | C_select -> 1.0
  | C_gep -> 0.0
  (* Crossing the scalar/vector register domains costs more than the
     compile-time models assume — the root of the paper's observation
     that LSLP's statically-profitable trees can lose to -O3 at run
     time. *)
  | C_insert -> 1.8
  | C_extract -> 1.8
  | C_shuffle -> 1.0

let x86 =
  {
    name = "x86";
    scalar = x86_scalar;
    vector =
      (fun c ~lanes ->
        match c with
        | C_fp_div ->
            (* Vector divides scale with lane count on this class of
               hardware. *)
            4.0 *. float_of_int lanes
        | C_int_mul -> 3.5
        | C_gep -> 0.0
        | c -> x86_scalar c);
    alt =
      (fun (tgt : Target.t) ~lanes ~fam_mul ->
        if fam_mul then
          (* No mul/div alternating instruction exists: two vector ops
             blended together. *)
          (4.0 *. float_of_int lanes) +. 2.0
        else if tgt.Target.has_addsub then 1.0
        else (* add, sub and a blend *) 3.0);
    (* A gather is one insert per lane; priced like the inserts the
       codegen will actually emit. *)
    gather_lane = 1.8;
    splat = 1.0;
    extract = 1.8;
  }

(* --- AVX-512-flavoured model. -------------------------------------- *)

(* An EVEX-class core: arithmetic keeps its reciprocal throughput at
   any width (that is the whole point of going wide), divides still
   scale with lanes, and everything that crosses lanes or register
   domains is pricier than on the 128-bit unit — 512-bit permutes are
   lane-crossing by construction. *)
let avx512 =
  {
    name = "avx512";
    scalar = x86_scalar;
    vector =
      (fun c ~lanes ->
        match c with
        | C_fp_div -> 4.0 *. float_of_int lanes
        | C_int_mul -> 3.5
        | C_gep -> 0.0
        | C_shuffle -> 1.5
        | c -> x86_scalar c);
    alt =
      (fun (tgt : Target.t) ~lanes ~fam_mul ->
        if fam_mul then (4.0 *. float_of_int lanes) +. 2.0
        else if tgt.Target.has_addsub then 1.0
        else (* add, sub and a mask-blend *) 3.0);
    gather_lane = 2.0;
    splat = 1.0;
    extract = 2.0;
  }

(* --- NEON-flavoured model. ----------------------------------------- *)

(* An ARM-class core: moves between the integer and vector files are
   cheap (same register bank distance), fp multiplies a little slower,
   divides much slower, no addsub instruction at all. *)
let neon_scalar = function
  | C_fp_mul -> 2.0
  | C_fp_div -> 10.0
  | C_int_mul -> 2.0
  | C_insert -> 1.2
  | C_extract -> 1.2
  | c -> x86_scalar c

let neon =
  {
    name = "neon";
    scalar = neon_scalar;
    vector =
      (fun c ~lanes ->
        match c with
        | C_fp_div -> 5.0 *. float_of_int lanes
        | C_gep -> 0.0
        | c -> neon_scalar c);
    alt =
      (fun (tgt : Target.t) ~lanes:_ ~fam_mul ->
        if fam_mul then 6.0
        else if tgt.Target.has_addsub then 1.0
        else (* fadd, fsub and a bit-select *) 3.0);
    gather_lane = 1.2;
    splat = 1.0;
    extract = 1.2;
  }

(* The machine model that matches a target's flavour: the x86 table
   covers every 128/256-bit x86-shaped target; avx512 and neon get
   their own tables.  The bench sweep and the service's [@target]
   modes price each target with this. *)
let for_target (tgt : Target.t) : t =
  match tgt.Target.name with
  | "avx512" -> avx512
  | "neon" -> neon
  | _ -> x86

(* [instr_cost model target i] — cost in abstract cycles of one
   execution of [i].  This is the single pricing function shared by
   the performance simulator (per dynamic instruction) and the global
   pack selector (summed over live static instructions): both must
   charge the same machine model or a plan that wins statically could
   lose in simulation. *)
let instr_cost (model : t) (target : Target.t) (i : Defs.instr) : float =
  let lanes ty = Ty.lanes ty in
  match i.Defs.op with
  | Defs.Binop b ->
      let c = class_of_binop b i.Defs.ty in
      if Ty.is_vector i.Defs.ty then model.vector c ~lanes:(lanes i.Defs.ty)
      else model.scalar c
  | Defs.Alt_binop kinds ->
      let fam_mul = Array.exists (fun k -> k = Defs.Mul || k = Defs.Div) kinds in
      model.alt target ~lanes:(lanes i.Defs.ty) ~fam_mul
  | Defs.Load ->
      if Ty.is_vector i.Defs.ty then model.vector C_load ~lanes:(lanes i.Defs.ty)
      else model.scalar C_load
  | Defs.Store ->
      let vty = Value.ty i.Defs.ops.(0) in
      if Ty.is_vector vty then model.vector C_store ~lanes:(lanes vty)
      else model.scalar C_store
  | Defs.Gep -> model.scalar C_gep
  | Defs.Insert -> model.scalar C_insert
  | Defs.Extract -> model.scalar C_extract
  | Defs.Shuffle _ -> model.scalar C_shuffle
  | Defs.Icmp _ | Defs.Fcmp _ -> model.scalar C_cmp
  | Defs.Select -> model.scalar C_select
  | Defs.Phi _ ->
      (* A phi is a join-point annotation, not an executed operation:
         register allocation places the incoming values; charge 0 like
         a gep. *)
      0.0

let by_name = function
  | "paper" -> Some paper
  | "x86" -> Some x86
  | "avx512" -> Some avx512
  | "neon" -> Some neon
  | _ -> None
