(* Cross-iteration dependence analysis over affine subscripts.

   For an innermost counted loop, every pair of memory accesses on
   the same argument buffer whose element indices are affine in the
   induction variable is solved for loop-carried conflicts: access A
   at iteration p touches element [a·iv(p) + r + cA + kA] (kA a lane
   offset below the access width), so A at iteration p and B at
   iteration q collide exactly when

     a·step·(q − p) = (cA + kA) − (cB + kB)

   — a linear Diophantine equation in the iteration distance d = q − p.
   Solutions with d ≥ 1 (and d < trip count when known) are the
   loop-carried dependences, classified flow (store → later load),
   anti (load → later store) or output (store → store); a zero
   iv-coefficient pair that overlaps collides at *every* distance and
   is reported with distance 1, the minimal carried one.

   A loop is *parallel* when it is counted, every access is
   analyzable (argument base, affine index, invariant residual), and
   no loop-carried dependence exists — the exact precondition for
   vectorizing across iterations rather than within one. *)

open Snslp_ir
open Snslp_analysis
open Snslp_loops

type kind = Flow | Anti | Output

let kind_to_string = function Flow -> "flow" | Anti -> "anti" | Output -> "output"

type dep = {
  kind : kind;
  src : Defs.instr; (* the earlier iteration's access *)
  dst : Defs.instr; (* the later iteration's access *)
  distance : int; (* iterations, >= 1 *)
}

let dep_to_string d =
  Printf.sprintf "%s dependence, distance %d: %s -> %s" (kind_to_string d.kind) d.distance
    (Instr.to_string d.src) (Instr.to_string d.dst)

type loop_info = {
  loop : Loops.loop;
  counted : (Loops.counted * bool, string) result;
  trip : int option; (* constant trip count, when counted *)
  deps : dep list; (* loop-carried dependences, innermost loops only *)
  analyzed : bool; (* every access was analyzable (innermost + counted) *)
  parallel : bool; (* analyzed and no loop-carried dependence *)
}

type t = { forest : Loops.forest; infos : loop_info list }

let access_width (i : Defs.instr) =
  if Instr.is_store i then Ty.lanes (Value.ty i.Defs.ops.(0)) else Ty.lanes i.Defs.ty

(* An access summarised against the loop's iv: argument base, iv
   coefficient, constant part, invariant residual terms, width. *)
type access = {
  instr : Defs.instr;
  arg : int; (* argument position of the base *)
  coeff : int; (* iv coefficient [a] *)
  off : int; (* constant part of the index *)
  residual : int Affine.Var_map.t; (* symbolic terms minus the iv *)
  width : int;
}

let classify (iv : Defs.instr) (i : Defs.instr) : access option =
  match Address.of_instr i with
  | Some { Address.base = Defs.Arg a; index; _ } ->
      let iv_var = Affine.Var.Instr_var iv.Defs.iid in
      let coeff =
        match Affine.Var_map.find_opt iv_var index.Affine.terms with
        | Some c -> c
        | None -> 0
      in
      Some
        {
          instr = i;
          arg = a.Defs.arg_pos;
          coeff;
          off = index.Affine.const;
          residual = Affine.Var_map.remove iv_var index.Affine.terms;
          width = access_width i;
        }
  | _ -> None

(* Loop-carried distances between [x] (iteration p) and [y]
   (iteration q = p + d), as a sorted list of d >= 1; negative
   solutions belong to the swapped pair and are dropped here. *)
let distances ~(stride : int) ?trip (x : access) (y : access) : int list =
  if x.arg <> y.arg || x.coeff <> y.coeff
     || not (Affine.Var_map.equal ( = ) x.residual y.residual)
  then []
  else
    let within d = match trip with Some n -> d < n | None -> true in
    let acc = ref [] in
    for kx = 0 to x.width - 1 do
      for ky = 0 to y.width - 1 do
        let num = x.off + kx - (y.off + ky) in
        if stride = 0 then begin
          (* Same element every iteration: carried at every distance;
             record the minimal one. *)
          if num = 0 then acc := 1 :: !acc
        end
        else if num mod stride = 0 then begin
          let d = num / stride in
          if d >= 1 && within d then acc := d :: !acc
        end
      done
    done;
    List.sort_uniq compare !acc

let dep_kind (earlier : Defs.instr) (later : Defs.instr) : kind option =
  match (Instr.is_store earlier, Instr.is_store later) with
  | true, true -> Some Output
  | true, false -> Some Flow
  | false, true -> Some Anti
  | false, false -> None (* load-load pairs carry nothing *)

(* [deps_of f l c] — the loop-carried dependences of an innermost
   counted loop, plus whether every memory access was analyzable. *)
let deps_of (_f : Defs.func) (l : Loops.loop) (c : Loops.counted) : dep list * bool =
  let accesses =
    List.concat_map
      (fun (b : Defs.block) -> List.filter Instr.is_memory (Block.instrs b))
      l.Loops.blocks
  in
  let classified = List.map (classify c.Loops.iv) accesses in
  let analyzed = List.for_all Option.is_some classified in
  let summaries = List.filter_map Fun.id classified in
  let stride =
    (* element advance per iteration; the iv coefficient scales the
       int64 step — clamp to int, the affine domain *)
    Int64.to_int c.Loops.step
  in
  let trip = Loops.trip_count c in
  let deps = ref [] in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          match dep_kind x.instr y.instr with
          | None -> ()
          | Some kind ->
              List.iter
                (fun d ->
                  deps := { kind; src = x.instr; dst = y.instr; distance = d } :: !deps)
                (distances ~stride:(stride * x.coeff) ?trip x y))
        summaries)
    summaries;
  (* The self-pair and the swapped pair both enumerate, so every
     carried conflict appears exactly once with d >= 1. *)
  (List.rev !deps, analyzed)

let analyze (f : Defs.func) : t =
  let forest = Loops.analyze f in
  let infos =
    List.map
      (fun (l : Loops.loop) ->
        let counted = Loops.recognize l in
        let innermost = l.Loops.children = [] in
        match counted with
        | Ok (c, _) when innermost ->
            let deps, analyzed = deps_of f l c in
            {
              loop = l;
              counted;
              trip = Loops.trip_count c;
              deps;
              analyzed;
              parallel = analyzed && deps = [];
            }
        | Ok (c, _) ->
            (* An outer loop's body accesses vary with the inner ivs
               too; solving against the outer iv alone would misname
               collisions, so outer loops are left unanalyzed. *)
            { loop = l; counted; trip = Loops.trip_count c; deps = []; analyzed = false;
              parallel = false }
        | Error _ ->
            { loop = l; counted; trip = None; deps = []; analyzed = false; parallel = false })
      forest.Loops.loops
  in
  { forest; infos }

(* --- The loop-forest report (snslp-lint --loops) -------------------------- *)

let pp_info ppf (i : loop_info) =
  let l = i.loop in
  let indent = String.make (2 * (l.Loops.depth - 1)) ' ' in
  Fmt.pf ppf "%sloop %s: depth %d, %d block(s), %d instr(s)" indent
    l.Loops.header.Defs.bname l.Loops.depth (Loops.num_blocks l) (Loops.num_instrs l);
  (match i.counted with
  | Error reason -> Fmt.pf ppf "@,%s  not counted: %s" indent reason
  | Ok (c, strict) ->
      Fmt.pf ppf "@,%s  counted%s: iv %%%s from %s, step %Ld while %%%s %s %s" indent
        (if strict then "" else " (relaxed)")
        c.Loops.iv.Defs.iname (Value.name c.Loops.init) c.Loops.step
        c.Loops.iv.Defs.iname
        (Defs.cmp_to_string c.Loops.cmp)
        (Value.name c.Loops.bound);
      (match i.trip with
      | Some n -> Fmt.pf ppf ", trip %d" n
      | None -> Fmt.pf ppf ", trip symbolic"));
  if i.parallel then Fmt.pf ppf "@,%s  parallel: no loop-carried dependence" indent
  else if i.analyzed then
    List.iter (fun d -> Fmt.pf ppf "@,%s  carried %s" indent (dep_to_string d)) i.deps
  else if i.loop.Loops.children <> [] then
    Fmt.pf ppf "@,%s  dependences not analyzed (contains inner loops)" indent
  else Fmt.pf ppf "@,%s  dependences not analyzed" indent

let report ppf (f : Defs.func) =
  let t = analyze f in
  Fmt.pf ppf "@[<v>%s: %d loop(s)" f.Defs.fname (List.length t.infos);
  List.iter (fun i -> Fmt.pf ppf "@,%a" pp_info i) t.infos;
  Fmt.pf ppf "@]@."
