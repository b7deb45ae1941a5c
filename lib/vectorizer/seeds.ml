(* Seed collection.

   Stores to adjacent memory locations are the most promising seeds
   and the ones compilers look for first (paper, §II-B).  The
   collector groups the stores of a block into address classes
   ({!Address.classes}: one base, element type and symbolic index,
   sorted by constant offset) and returns the maximal consecutive
   runs; the driver cuts runs into vector-width groups,
   retrying rejected groups at narrower power-of-two widths the way
   LLVM's SLP does. *)

open Snslp_ir
open Snslp_analysis

type group = Defs.instr list (* lane order = increasing address *)

(* The maximal runs (length >= 2) of stores one element apart, per
   address class, classes in order of first appearance.  Of two stores
   to one location only the first is a seed candidate. *)
let store_runs (stores : Defs.instr list) : group list =
  let key i = if Instr.is_store i then Option.map (fun a -> (a, 0)) (Address.of_instr i) else None in
  Address.classes key stores
  |> List.concat_map (fun cls -> Address.runs ~step:1 (Address.distinct cls))
  |> List.filter_map (function _ :: _ :: _ as run -> Some (List.map snd run) | _ -> None)

let runs (block : Defs.block) : group list = store_runs (Block.instrs block)

(* Element type stored by a run. *)
let elem_of_run (run : group) : Ty.scalar =
  match run with
  | i :: _ -> Ty.elem (Value.ty i.Defs.ops.(0))
  | [] -> invalid_arg "Seeds.elem_of_run: empty run"

(* Cut [run] into consecutive groups of exactly [width]. The remainder
   (fewer than [width] items) is returned for narrower retries. *)
let chunk ~width (run : 'a list) : 'a list list * 'a list =
  let rec go acc cur n = function
    | [] -> (List.rev acc, List.rev cur)
    | x :: rest ->
        if n + 1 = width then go (List.rev (x :: cur) :: acc) [] 0 rest
        else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 run

(* Re-split a list of stores (ordered by address) into consecutive
   runs, after some members were consumed by wider groups. *)
let recut = store_runs

(* Power-of-two widths from [max_width] down to 2, descending. *)
let widths ~max_width =
  let rec pow2_floor w = if w * 2 <= max_width then pow2_floor (w * 2) else w in
  let rec down w acc = if w < 2 then acc else down (w / 2) (w :: acc) in
  if max_width < 2 then [] else List.rev (down (pow2_floor 1) [])

(* Compatibility wrapper: full-width groups only, as the tests and
   simple callers use. *)
let collect (block : Defs.block) ~(lanes_for : Ty.scalar -> int) : group list =
  List.concat_map
    (fun run ->
      let width = lanes_for (elem_of_run run) in
      if width < 2 then []
      else
        let groups, _rest = chunk ~width run in
        groups)
    (runs block)
