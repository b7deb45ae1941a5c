(* Structural invariants of a built SLP graph — the legality surface
   the paper's correctness argument rests on, re-derived from scratch
   on the finished graph rather than trusted from the builder:

   - every vectorizable bundle must be schedulable (a fresh dependence
     analysis must still find a legal placement);
   - [K_vec] lanes are opcode-isomorphic; load/store bundles walk
     consecutive addresses;
   - [K_alt] lane opcodes are exactly the per-lane realised operators
     (the emitted alternating mask *is* the accumulated-path-operation
     parity made visible, so a lane whose scalar disagrees with the
     mask is an APO sign error);
   - children hold, lane by lane, the operands of their parent's
     scalars (commutative lanes may swap), and a [K_perm] node is its
     child's lanes under the recorded mask.

   Violations are reported as strings carrying the pretty-printed
   lane-0 instruction, ready to wrap into lint findings. *)

open Snslp_ir
open Snslp_analysis

let report acc fmt = Printf.ksprintf (fun s -> acc := s :: !acc) fmt

let node_desc (n : Graph.node) =
  let lane0 =
    match n.Graph.scalars.(0) with
    | Defs.Instr i -> Instr.to_string i
    | v -> Value.name v
  in
  Printf.sprintf "node #%d [%s]" n.Graph.nid lane0

let as_instrs (n : Graph.node) : Defs.instr array option =
  let ok = Array.for_all Value.is_instr n.Graph.scalars in
  if ok then
    Some (Array.map (fun v -> Option.get (Value.as_instr v)) n.Graph.scalars)
  else None

(* Operand consistency of one lane: children lanes must be the lane's
   operands, in order, except that a commutative lane may have been
   swapped by operand reordering. *)
let lane_operands_ok (i : Defs.instr) (children : Graph.node array) lane =
  let child k = children.(k).Graph.scalars.(lane) in
  let direct () =
    let n = Array.length children in
    n <= Array.length i.Defs.ops
    && Array.for_all
         (fun k -> Value.equal (child k) i.Defs.ops.(k))
         (Array.init n (fun k -> k))
  in
  match i.Defs.op with
  | Defs.Binop b when Defs.is_commutative b && Array.length children = 2 ->
      direct ()
      || (Value.equal (child 0) i.Defs.ops.(1) && Value.equal (child 1) i.Defs.ops.(0))
  | _ -> direct ()

let check_node acc (deps : Deps.t) (n : Graph.node) =
  match n.Graph.kind with
  | Graph.K_gather | Graph.K_splat -> ()
  | Graph.K_perm mask -> (
      if Array.length n.Graph.children <> 1 then
        report acc "%s: permutation node without a single child" (node_desc n)
      else
        let child = n.Graph.children.(0) in
        let clanes = Array.length child.Graph.scalars in
        Array.iteri
          (fun k m ->
            if m < 0 || m >= clanes then
              report acc "%s: permutation index %d out of range" (node_desc n) m
            else if not (Value.equal n.Graph.scalars.(k) child.Graph.scalars.(m)) then
              report acc "%s: lane %d is not child lane %d" (node_desc n) k m)
          mask)
  | Graph.K_vec | Graph.K_alt _ -> (
      match as_instrs n with
      | None -> report acc "%s: vectorizable node with non-instruction lanes" (node_desc n)
      | Some instrs ->
          let bundle = Array.to_list instrs in
          if not (Deps.can_bundle deps bundle) then
            report acc "%s: bundle has no legal schedule" (node_desc n);
          (match n.Graph.kind with
          | Graph.K_vec ->
              Array.iter
                (fun i ->
                  if not (Instr.same_opcode i instrs.(0)) then
                    report acc "%s: lane opcodes are not isomorphic (%s)" (node_desc n)
                      (Instr.to_string i))
                instrs
          | Graph.K_alt kinds ->
              if Array.length kinds <> Array.length instrs then
                report acc "%s: alternating mask length mismatch" (node_desc n)
              else begin
                Array.iteri
                  (fun k i ->
                    match Instr.binop_kind i with
                    | Some b when b = kinds.(k) -> ()
                    | Some b ->
                        (* The emitted mask is the APO parity surface:
                           a lane op that disagrees with the mask is a
                           sign error. *)
                        report acc "%s: lane %d realises %s but the mask says %s" (node_desc n)
                          k (Defs.binop_to_string b)
                          (Defs.binop_to_string kinds.(k))
                    | None -> report acc "%s: lane %d is not a binop" (node_desc n) k)
                  instrs;
                match Array.to_list kinds with
                | [] -> report acc "%s: empty alternating mask" (node_desc n)
                | k0 :: rest ->
                    let fam = Family.of_binop k0 in
                    if not (List.for_all (fun k -> Family.same_family k0 k) rest) then
                      report acc "%s: alternating mask mixes operator families" (node_desc n)
                    else
                      let elem = Ty.elem instrs.(0).Defs.ty in
                      if not (Family.allowed_on fam elem) then
                        report acc "%s: %s super-node on %s lanes" (node_desc n)
                          (Family.to_string fam) (Ty.scalar_to_string elem)
              end
          | _ -> ());
          (* Memory bundles walk consecutive addresses. *)
          if Array.for_all Instr.is_load instrs || Array.for_all Instr.is_store instrs then begin
            match
              Array.to_list (Array.map Address.of_instr instrs)
              |> List.map (function Some a -> [ a ] | None -> [])
              |> List.concat
            with
            | addrs when List.length addrs = Array.length instrs ->
                if not (Address.consecutive addrs) then
                  report acc "%s: memory bundle is not consecutive" (node_desc n)
            | _ -> report acc "%s: memory bundle with unresolvable address" (node_desc n)
          end
          else if Array.length n.Graph.children > 0 then
            Array.iteri
              (fun lane i ->
                if not (lane_operands_ok i n.Graph.children lane) then
                  report acc "%s: lane %d operands disagree with children (%s)" (node_desc n)
                    lane (Instr.to_string i))
              instrs)

(* [check g] re-derives the graph invariants; returns violation
   descriptions (empty = invariants hold).  Runs a fresh dependence
   analysis of the block, so the verdict is independent of the
   builder's incrementally refreshed state. *)
let check (g : Graph.t) : string list =
  let acc = ref [] in
  let deps = Deps.of_block g.Graph.block in
  List.iter (check_node acc deps) (Graph.nodes g);
  List.rev !acc
