(* Address summaries of memory instructions.

   Every load/store address in our IR is a [gep base index]; the
   summary pairs the base value with the affine form of the index. *)

open Snslp_ir

type t = { base : Defs.value; elem : Ty.scalar; index : Affine.t }

(* [of_addr_value v] summarises a pointer-typed value. *)
let rec of_addr_value (v : Defs.value) : t option =
  match v with
  | Defs.Arg a -> (
      match a.arg_ty with
      | Ty.Ptr s -> Some { base = v; elem = s; index = Affine.const 0 }
      | Ty.Scalar _ | Ty.Vector _ -> None)
  | Defs.Instr i -> (
      match (i.op, i.ty) with
      | Defs.Gep, Ty.Ptr s -> (
          (* Look through chains of geps by accumulating indices. *)
          match of_addr_value i.ops.(0) with
          | Some inner ->
              Some { inner with elem = s; index = Affine.add inner.index (Affine.of_value i.ops.(1)) }
          | None -> Some { base = i.ops.(0); elem = s; index = Affine.of_value i.ops.(1) })
      | _ -> None)
  | Defs.Const _ | Defs.Undef _ -> None

(* [of_instr i] summarises the address of a load or store. *)
let of_instr (i : Defs.instr) : t option =
  match i.op with
  | Defs.Load -> of_addr_value i.ops.(0)
  | Defs.Store -> of_addr_value i.ops.(1)
  | _ -> None

let same_base (a : t) (b : t) = Value.equal a.base b.base && Ty.scalar_equal a.elem b.elem

(* [delta a b] is the element distance from [a] to [b] when both share
   a base and symbolic index. *)
let delta (a : t) (b : t) : int option =
  if same_base a b then Affine.delta a.index b.index else None

(* [adjacent a b] holds when [b] addresses the element immediately
   after [a]. *)
let adjacent (a : t) (b : t) = delta a b = Some 1

(* [consecutive addrs] holds when the list walks memory one element at
   a time, left to right. *)
let rec consecutive = function
  | [] | [ _ ] -> true
  | a :: (b :: _ as rest) -> adjacent a b && consecutive rest

let to_string (a : t) =
  Printf.sprintf "%s[%s]" (Value.name a.base) (Affine.to_string a.index)

let pp ppf a = Fmt.string ppf (to_string a)

(* --- Address classes. ----------------------------------------------- *)

(* Two addresses are in one class when {!delta} relates them: one base,
   one element type, one symbolic index.  The tag splits classes
   further for a caller that must not mix, say, signs or widths.  The
   symbolic terms are hashed with a fold, never structurally: two equal
   maps can differ in tree shape.  Ids hash as themselves, so CSE's
   lookup per load makes no generic hash call. *)
module Class_table = Hashtbl.Make (struct
  type nonrec t = t * int

  let equal ((a, s) : t) ((b, u) : t) =
    s = u && same_base a b && Affine.same_symbolic a.index b.index

  let var = function Affine.Var.Arg_var p -> -1 - p | Affine.Var.Instr_var id -> id

  let hash ((a, tag) : t) =
    let base =
      match a.base with
      | Defs.Arg x -> -1 - x.Defs.arg_pos
      | Defs.Instr i -> i.Defs.iid
      | Defs.Const _ | Defs.Undef _ -> Value.hash a.base
    in
    Affine.Var_map.fold
      (fun v c h -> (31 * ((31 * h) + var v)) + c)
      a.index.Affine.terms ((31 * base) + tag)
end)

let offset (a : t) = a.index.Affine.const

(* [classes key items] groups the items [key] gives an address (and a
   tag) by class, classes in order of first appearance, each as its
   (offset, item) list sorted by offset, equal offsets in input
   order. *)
let classes (key : 'a -> (t * int) option) (items : 'a list) : (int * 'a) list list =
  let table = Class_table.create 16 in
  let order = ref [] in
  List.iter
    (fun item ->
      match key item with
      | None -> ()
      | Some ((a, _) as k) -> (
          let entry = (offset a, item) in
          match Class_table.find_opt table k with
          | Some members -> members := entry :: !members
          | None ->
              let members = ref [ entry ] in
              Class_table.add table k members;
              order := members :: !order))
    items;
  List.rev_map
    (fun members -> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) (List.rev !members))
    !order

(* [distinct cls] keeps the first item at each offset of a sorted
   class. *)
let rec distinct = function
  | (o, x) :: (o', _) :: rest when o = o' -> distinct ((o, x) :: rest)
  | x :: rest -> x :: distinct rest
  | [] -> []

(* [runs ~step cls] cuts a sorted class into its maximal runs whose
   offsets increase by [step], in offset order. *)
let runs ~step (cls : (int * 'a) list) : (int * 'a) list list =
  let rec go run acc = function
    | [] -> List.rev (List.rev run :: acc)
    | ((o, _) as x) :: rest -> (
        match run with
        | (p, _) :: _ when o = p + step -> go (x :: run) acc rest
        | _ -> go [ x ] (List.rev run :: acc) rest)
  in
  match cls with [] -> [] | x :: rest -> go [ x ] [] rest
