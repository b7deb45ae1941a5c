(* Horizontal reduction vectorization — the paper's evaluation enables
   LLVM's `-slp-vectorize-hor`, which seeds SLP from reduction trees as
   well as store groups.  This module implements that seeding for long
   single-lane chains: a chain whose leaves contain runs of loads from
   consecutive addresses is rewritten to

     vacc  = vload run0  (+/-)  vload run1  (+/-) ...
     hsum  = lane0(vacc) + lane1(vacc) + ...
     root' = hsum  (+/-)  leftover leaves

   Under SN-SLP the chain may mix the commutative operator with its
   inverse: each consecutive run shares one APO, so the accumulation
   applies the run's sign with a single vector sub/div, and the final
   recombination realises leftover APOs exactly as Super-Node
   regeneration does.  Vanilla SLP and LSLP only reduce pure
   direct-operator chains, matching the Multi-Node restriction. *)

open Snslp_ir
open Snslp_analysis
open Snslp_costmodel

(* A run of [width] same-APO leaves loading consecutive addresses.
   Loads carry their index into the chain's leaves array: after CSE
   the same load instruction can appear as several leaf occurrences
   with different APOs (e.g. [... - A[1] + A[1]]), so instruction
   identity cannot tell which occurrence a run consumed. *)
type run = { loads : (int * Defs.instr) list (* address order *); apo : Apo.t }

(* Leaves that are loads in this block, with their addresses, tagged
   with their occurrence index in [chain.leaves]. *)
let load_leaves (block : Defs.block) (chain : Chain.t) =
  Array.to_list chain.Chain.leaves
  |> List.mapi (fun k l -> (k, l))
  |> List.filter_map (fun (k, (l : Chain.leaf)) ->
         match l.Chain.lvalue with
         | Defs.Instr i
           when Instr.is_load i
                && (match i.Defs.iblock with
                   | Some b -> Block.equal b block
                   | None -> false)
                && not (Ty.is_vector i.Defs.ty) ->
             Option.map (fun a -> (k, l, i, a)) (Address.of_instr i)
         | _ -> None)

(* Greedy grouping: bucket load leaves by (base, symbolic index, APO),
   sort by offset, cut consecutive runs, chunk into [width]. *)
let group_runs ~width (leaves : (int * Chain.leaf * Defs.instr * Address.t) list) :
    run list * (int * Chain.leaf * Defs.instr * Address.t) list =
  let buckets :
      (string, (int * (int * Chain.leaf * Defs.instr * Address.t)) list) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (fun (k, (l : Chain.leaf), i, (a : Address.t)) ->
      let sym = { a.Address.index with Affine.const = 0 } in
      let key =
        Printf.sprintf "%s|%s|%s" (Value.name a.Address.base)
          (Affine.to_string sym)
          (match l.Chain.lapo with Apo.Plus -> "+" | Apo.Minus -> "-")
      in
      let entry = (a.Address.index.Affine.const, (k, l, i, a)) in
      Hashtbl.replace buckets key
        (entry :: (try Hashtbl.find buckets key with Not_found -> [])))
    leaves;
  let runs = ref [] in
  let leftover = ref [] in
  Hashtbl.iter
    (fun _ entries ->
      let sorted = List.sort (fun (a, _) (b, _) -> Int.compare a b) entries in
      (* Duplicate offsets cannot both join a vector: spill extras. *)
      let rec dedup = function
        | (o1, x1) :: ((o2, _) :: _ as rest) when o1 = o2 ->
            leftover := x1 :: !leftover;
            dedup rest
        | x :: rest -> x :: dedup rest
        | [] -> []
      in
      let sorted = dedup sorted in
      let rec cut cur = function
        | [] -> [ List.rev cur ]
        | (o, x) :: rest -> (
            match cur with
            | (po, _) :: _ when o = po + 1 -> cut ((o, x) :: cur) rest
            | [] -> cut [ (o, x) ] rest
            | _ -> List.rev cur :: cut [ (o, x) ] rest)
      in
      let consecutive_runs = match sorted with [] -> [] | _ -> cut [] sorted in
      List.iter
        (fun r ->
          let rec chunks l =
            if List.length l >= width then begin
              let rec take n acc l =
                if n = 0 then (List.rev acc, l)
                else
                  match l with
                  | x :: rest -> take (n - 1) (x :: acc) rest
                  | [] -> (List.rev acc, [])
              in
              let grp, rest = take width [] l in
              let apo =
                match grp with
                | (_, (_, (l : Chain.leaf), _, _)) :: _ -> l.Chain.lapo
                | [] -> Apo.Plus
              in
              runs :=
                { loads = List.map (fun (_, (k, _, i, _)) -> (k, i)) grp; apo }
                :: !runs;
              chunks rest
            end
            else List.iter (fun (_, x) -> leftover := x :: !leftover) l
          in
          chunks r)
        consecutive_runs)
    buckets;
  (!runs, !leftover)

(* No store between the earliest grouped load and the chain root may
   touch the loaded locations: the vector load reads them at the
   root. *)
let loads_safe_until_root (deps : Deps.t) (root : Defs.instr) (runs : run list) =
  let loads = List.concat_map (fun r -> List.map snd r.loads) runs in
  match loads with
  | [] -> false
  | _ ->
      List.for_all
        (fun (ld : Defs.instr) ->
          (* The load slides down to the root position. *)
          Deps.bundle_placement deps [ ld; root ] <> None
          ||
          (* bundle_placement also demands independence, which a load
             under its own chain root never has; check the memory rule
             directly instead. *)
          let plo = Deps.position deps ld and phi = Deps.position deps root in
          let ok = ref true in
          for p = plo + 1 to phi - 1 do
            let x = deps.Deps.instrs.(p) in
            if Instr.writes_memory x then
              match (Deps.memloc_of_instr x, Deps.memloc_of_instr ld) with
              | Some lx, Some ll when Deps.may_overlap lx ll -> ok := false
              | _ -> ()
          done;
          !ok)
        loads

(* Didactic profitability: costs of what the rewrite adds versus the
   scalar instructions it retires. *)
let profitable (config : Config.t) ~width ~(n_leaves : int) ~(n_groups : int)
    ~(n_leftover : int) =
  let m = config.Config.model in
  let grouped = n_groups * width in
  let old_cost =
    (* Retired: grouped loads and the ops that folded them in. *)
    (float_of_int grouped *. m.Model.scalar Model.C_load)
    +. float_of_int (n_leaves - 1) *. m.Model.scalar Model.C_fp_addsub
  in
  let new_cost =
    (float_of_int n_groups *. m.Model.vector Model.C_load ~lanes:width)
    +. (float_of_int (n_groups - 1) *. m.Model.vector Model.C_fp_addsub ~lanes:width)
    +. (float_of_int width *. m.Model.extract)
    +. (float_of_int (width - 1) *. m.Model.scalar Model.C_fp_addsub)
    +. float_of_int n_leftover *. m.Model.scalar Model.C_fp_addsub
  in
  new_cost < old_cost

type result = { vector_loads : int; width : int }

(* Try to reduce the chain rooted at the value stored by [store]. *)
let attempt (config : Config.t) (func : Defs.func) (block : Defs.block)
    (deps : Deps.t) (store : Defs.instr) : result option =
  match store.Defs.ops.(0) with
  | Defs.Instr root when Instr.is_binop root && not (Ty.is_vector root.Defs.ty) -> (
      let elem = Ty.elem root.Defs.ty in
      if Ty.scalar_is_int elem && config.Config.mode <> Config.Snslp then None
      else
        let discover_config =
          (* Reductions without Super-Nodes only cover the commutative
             operator, like the Multi-Node. *)
          match config.Config.mode with
          | Config.Snslp -> config
          | Config.Vanilla | Config.Lslp -> { config with Config.mode = Config.Lslp }
        in
        match Chain.discover discover_config func root with
        | None -> None
        | Some chain when chain.Chain.fam <> Family.Add_sub -> None
        | Some chain -> (
            let width = Target.lanes_for config.Config.target chain.Chain.elem in
            let n_leaves = Array.length chain.Chain.leaves in
            if width < 2 || n_leaves < 2 * width then None
            else
              let leaves = load_leaves block chain in
              let runs, _spilled = group_runs ~width leaves in
              let n_groups = List.length runs in
              let n_leftover = n_leaves - (n_groups * width) in
              if n_groups = 0 then None
              else if not (loads_safe_until_root deps root runs) then None
              else if not (profitable config ~width ~n_leaves ~n_groups ~n_leftover)
              then None
              else begin
                (* Order runs so a Plus run accumulates first. *)
                let runs =
                  List.stable_sort
                    (fun a b ->
                      compare (a.apo = Apo.Minus) (b.apo = Apo.Minus))
                    runs
                in
                match runs with
                | first :: rest when first.apo = Apo.Plus || n_leftover > 0 ->
                    (* Keyed by leaf occurrence, not instruction id:
                       a CSE'd load feeding the chain with both signs
                       is one instruction but two terms, and only the
                       grouped occurrence is accounted for by its
                       run — the other must survive as a leftover. *)
                    let grouped_occs = Hashtbl.create 16 in
                    List.iter
                      (fun r ->
                        List.iter
                          (fun (k, _) -> Hashtbl.replace grouped_occs k ())
                          r.loads)
                      runs;
                    (* Emit before the root. *)
                    let emit op ty ops =
                      let i = Func.fresh_instr func op ty ops in
                      Block.insert_before block ~anchor:root i;
                      i
                    in
                    let vty = Ty.vector ~lanes:width chain.Chain.elem in
                    let vload (r : run) =
                      let first_load = snd (List.hd r.loads) in
                      emit Defs.Load vty [| first_load.Defs.ops.(0) |]
                    in
                    let vacc = ref (Instr.value (vload first)) in
                    let first_minus = first.apo = Apo.Minus in
                    List.iter
                      (fun r ->
                        let op =
                          match r.apo with Apo.Plus -> Defs.Add | Apo.Minus -> Defs.Sub
                        in
                        (* The first run's sign was taken as +; if it
                           was really −, signs of the whole vacc are
                           flipped and fixed at recombination. *)
                        let op = if first_minus then (match op with Defs.Add -> Defs.Sub | _ -> Defs.Add) else op in
                        vacc := Instr.value (emit (Defs.Binop op) vty [| !vacc; Instr.value (vload r) |]))
                      rest;
                    (* Horizontal sum. *)
                    let sty = Ty.Scalar chain.Chain.elem in
                    let lane k =
                      Instr.value (emit Defs.Extract sty [| !vacc; Value.const_int k |])
                    in
                    let hsum = ref (lane 0) in
                    for k = 1 to width - 1 do
                      hsum := Instr.value (emit (Defs.Binop Defs.Add) sty [| !hsum; lane k |])
                    done;
                    (* Recombine: leftover leaves in original order,
                       the horizontal sum as one extra term. *)
                    let terms =
                      (Array.to_list chain.Chain.leaves
                      |> List.mapi (fun k l -> (k, l))
                      |> List.filter_map (fun (k, (l : Chain.leaf)) ->
                             if Hashtbl.mem grouped_occs k then None
                             else Some (l.Chain.lvalue, l.Chain.lapo)))
                      @ [ (!hsum, (if first_minus then Apo.Minus else Apo.Plus)) ]
                    in
                    (* A Plus term must lead; one always exists (the
                       chain's leftmost leaf is Plus, and if grouped,
                       its run accumulated first with sign +). *)
                    let terms =
                      let plus, minus =
                        List.partition (fun (_, a) -> a = Apo.Plus) terms
                      in
                      match plus with
                      | p :: ps -> (p :: ps) @ minus
                      | [] -> terms (* unreachable; regeneration asserts *)
                    in
                    let acc = ref (fst (List.hd terms)) in
                    List.iter
                      (fun (v, apo) ->
                        let op = Apo.realising_op chain.Chain.fam apo in
                        acc := Instr.value (emit (Defs.Binop op) sty [| !acc; v |]))
                      (List.tl terms);
                    Func.replace_all_uses func ~old_v:(Defs.Instr root)
                      ~new_v:!acc;
                    (* Erase the dead trunk (and so the grouped loads
                       and their geps, via DCE later).  As in
                       [Supernode.regenerate_lane], the trunk is in
                       pre-order with single-use interior nodes, so
                       one root-first pass suffices. *)
                    List.iter
                      (fun i ->
                        if not (Func.has_uses func (Defs.Instr i)) then
                          Func.erase_instr func i)
                      chain.Chain.trunk;
                    Verifier.verify_exn func;
                    Some { vector_loads = n_groups; width }
                | _ -> None
              end))
  | _ -> None

(* [run config stats func] applies reduction vectorization to every
   block; returns how many reductions were rewritten.  One dependence
   analysis serves every store of a block, refreshed in place only
   after a successful rewrite. *)
let run (config : Config.t) (stats : Stats.t) (func : Defs.func) : int =
  let count = ref 0 in
  List.iter
    (fun block ->
      let stores = List.filter Instr.is_store (Block.instrs block) in
      match stores with
      | [] -> ()
      | _ ->
          stats.Stats.deps_builds <- stats.Stats.deps_builds + 1;
          let deps = Stats.time ~stats "deps" (fun () -> Deps.of_block block) in
          let dirty = ref false in
          List.iter
            (fun store ->
              if Block.mem block store then begin
                if !dirty then begin
                  Stats.time ~stats "deps" (fun () -> Deps.refresh deps block);
                  dirty := false
                end;
                match attempt config func block deps store with
                | Some _ ->
                    incr count;
                    dirty := true
                | None -> ()
              end)
            stores;
          Stats.add_deps stats deps)
    (Func.blocks func);
  !count
