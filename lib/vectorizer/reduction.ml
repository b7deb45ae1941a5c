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

(* Leaves that are loads in this block, with their addresses and APOs,
   tagged with their occurrence index in [chain.leaves]. *)
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
             Option.map (fun a -> (a, l.Chain.lapo, (k, i))) (Address.of_instr i)
         | _ -> None)

(* Greedy grouping: the load leaves' address classes, split by APO
   ({!Address.classes}), each cut into runs one element apart and the
   runs into [width] chunks; of two leaves at one offset only the
   first can join.  Runs come in the reverse of that order: classes in
   reverse order of first appearance, within a class last chunk first.
   Leaves no run takes stay leftover terms of the recombination. *)
let group_runs ~width leaves : run list =
  let key (a, apo, _) = Some (a, match apo with Apo.Plus -> 0 | Apo.Minus -> 1) in
  Address.classes key leaves
  |> List.concat_map (fun cls ->
         List.concat_map
           (fun run -> fst (Seeds.chunk ~width (List.map snd run)))
           (Address.runs ~step:1 (Address.distinct cls)))
  |> List.rev_map (fun chunk ->
         let _, apo, _ = List.hd chunk in
         { loads = List.map (fun (_, _, load) -> load) chunk; apo })

(* No store between a grouped load and the chain root may touch the
   loaded locations: the vector load reads them at the root.  One walk
   back from the root collects the stores it passes and checks each
   grouped load, when it reaches it, against the stores collected so
   far — exactly those between the load and the root.  Grouped loads
   are leaves of the root's chain in its block, so each precedes it. *)
let loads_safe_until_root (root : Defs.instr) (runs : run list) =
  let pending = Int_table.create 16 in
  List.iter
    (fun r ->
      List.iter (fun (_, (ld : Defs.instr)) -> Int_table.replace pending ld.Defs.iid ()) r.loads)
    runs;
  let rec walk stores left = function
    | Some (x : Defs.instr) when left > 0 ->
        if Instr.writes_memory x then
          let stores =
            match Deps.memloc_of_instr x with Some l -> l :: stores | None -> stores
          in
          walk stores left x.Defs.iprev
        else if Int_table.mem pending x.Defs.iid then
          match Deps.memloc_of_instr x with
          | Some ll when List.exists (fun ls -> Deps.may_overlap ls ll) stores -> false
          | _ -> walk stores (left - 1) x.Defs.iprev
        else walk stores left x.Defs.iprev
    | _ -> true
  in
  walk [] (Int_table.length pending) root.Defs.iprev

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
let attempt ~scope (config : Config.t) (func : Defs.func) (block : Defs.block)
    (store : Defs.instr) : result option =
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
              let runs = group_runs ~width (load_leaves block chain) in
              let n_groups = List.length runs in
              let n_leftover = n_leaves - (n_groups * width) in
              if n_groups = 0 then None
              else if not (loads_safe_until_root root runs) then None
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
                    let grouped_occs = Int_table.create 16 in
                    List.iter
                      (fun r ->
                        List.iter
                          (fun (k, _) -> Int_table.replace grouped_occs k ())
                          r.loads)
                      runs;
                    (* The vector code, before the root. *)
                    let emitted = ref [] in
                    let emit op ty ops =
                      let i = Func.fresh_instr func op ty ops in
                      Block.insert_before block ~anchor:root i;
                      emitted := i :: !emitted;
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
                       the horizontal sum as one extra term, Plus terms
                       first.  One always exists: the chain's leftmost
                       leaf is Plus, and if grouped, its run
                       accumulated first with sign +. *)
                    let terms =
                      (Array.to_list chain.Chain.leaves
                      |> List.mapi (fun k l -> (k, l))
                      |> List.filter_map (fun (k, (l : Chain.leaf)) ->
                             if Int_table.mem grouped_occs k then None
                             else Some (l.Chain.lvalue, l.Chain.lapo)))
                      @ [ (!hsum, (if first_minus then Apo.Minus else Apo.Plus)) ]
                    in
                    let plus, minus = List.partition (fun (_, a) -> a = Apo.Plus) terms in
                    (* The grouped loads and their geps die later, in
                       DCE.  Check what the rewrite touched, as codegen
                       does; the whole function is verified once,
                       after the vectorizer. *)
                    let r = Chain.rewrite func chain (plus @ minus) in
                    Verifier.verify_local_exn scope
                      ~touched:(List.rev_append !emitted r.Chain.emitted)
                      ~erased:r.Chain.erased;
                    Some { vector_loads = n_groups; width }
                | _ -> None
              end))
  | _ -> None

(* [run config func] applies reduction vectorization to every block;
   returns how many reductions were rewritten. *)
let run (config : Config.t) (func : Defs.func) : int =
  let scope = Verifier.scope func in
  List.fold_left
    (fun count block ->
      List.fold_left
        (fun count store ->
          if Block.mem block store && attempt ~scope config func block store <> None then
            count + 1
          else count)
        count
        (List.filter Instr.is_store (Block.instrs block)))
    0 (Func.blocks func)
