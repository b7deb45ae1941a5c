(* Interpreter memory: one typed buffer per array argument, addressed
   by (argument position, element offset).  Out-of-bounds accesses
   raise — the kernel harness sizes buffers to the workload, so a trap
   indicates a vectorizer bug. *)

open Snslp_ir

exception Out_of_bounds of string

type buffer = F_buf of float array | I_buf of int64 array

type t = (int, buffer) Hashtbl.t (* arg position -> buffer *)

let create () : t = Hashtbl.create 8

let alloc_float (t : t) ~(arg_pos : int) ~(size : int) = Hashtbl.replace t arg_pos (F_buf (Array.make size 0.0))

let set_float_buffer (t : t) ~(arg_pos : int) (a : float array) = Hashtbl.replace t arg_pos (F_buf a)
let set_int_buffer (t : t) ~(arg_pos : int) (a : int64 array) = Hashtbl.replace t arg_pos (I_buf a)

let buffer (t : t) ~(arg_pos : int) =
  match Hashtbl.find_opt t arg_pos with
  | Some b -> b
  | None -> raise (Out_of_bounds (Printf.sprintf "no buffer bound to argument %d" arg_pos))

let float_buffer (t : t) ~(arg_pos : int) =
  match buffer t ~arg_pos with
  | F_buf a -> a
  | I_buf _ -> invalid_arg "Memory.float_buffer: integer buffer"

let int_buffer (t : t) ~(arg_pos : int) =
  match buffer t ~arg_pos with
  | I_buf a -> a
  | F_buf _ -> invalid_arg "Memory.int_buffer: float buffer"

let check_bounds ~(len : int) ~(base : int) ~(off : int) =
  if off < 0 || off >= len then
    raise
      (Out_of_bounds (Printf.sprintf "arg%d[%d] out of bounds (size %d)" base off len))

(* A load whose element type disagrees with the buffer it hits is type
   confusion, not a value: both interpreter engines raise through this
   single helper so the trap text cannot drift between them. *)
let read_type_error ~(elem : Ty.scalar) ~(base : int) =
  invalid_arg
    (Printf.sprintf "Memory.read: %s load from %s buffer (arg%d)"
       (Ty.scalar_to_string elem)
       (if Ty.scalar_is_float elem then "integer" else "float")
       base)

(* [read t ~elem ~base ~off] loads one element.  Symmetric with
   [write]: f32 loads round (a 32-bit cell cannot hold more precision
   than [Arith.round_f32]) and the element type must match the buffer. *)
let read (t : t) ~(elem : Ty.scalar) ~(base : int) ~(off : int) : Rvalue.t =
  match buffer t ~arg_pos:base with
  | F_buf a ->
      check_bounds ~len:(Array.length a) ~base ~off;
      if Ty.scalar_is_int elem then read_type_error ~elem ~base;
      let f = a.(off) in
      Rvalue.R_float (Arith.round elem f)
  | I_buf a ->
      check_bounds ~len:(Array.length a) ~base ~off;
      if Ty.scalar_is_float elem then read_type_error ~elem ~base;
      Rvalue.R_int a.(off)

(* [write t ~elem ~base ~off v] stores one element, rounding f32. *)
let write (t : t) ~(elem : Ty.scalar) ~(base : int) ~(off : int) (v : Rvalue.t) =
  match buffer t ~arg_pos:base with
  | F_buf a ->
      check_bounds ~len:(Array.length a) ~base ~off;
      let f = Rvalue.as_float v in
      a.(off) <- Arith.round elem f
  | I_buf a ->
      check_bounds ~len:(Array.length a) ~base ~off;
      a.(off) <- Rvalue.as_int v

(* Deep snapshot, used by differential tests to compare final states. *)
let snapshot (t : t) : t =
  let t' = create () in
  Hashtbl.iter
    (fun k b ->
      let b' =
        match b with F_buf a -> F_buf (Array.copy a) | I_buf a -> I_buf (Array.copy a)
      in
      Hashtbl.replace t' k b')
    t;
  t'

(* [restore ~template t] copies [template]'s contents back into [t]
   without reallocating: matching-shape buffers are blitted in place,
   anything else falls back to a fresh copy.  The oracle pairs this
   with [snapshot] to reset one scratch memory per pipeline config
   instead of rebuilding deterministic contents from scratch. *)
let restore ~(template : t) (t : t) =
  Hashtbl.iter
    (fun k b ->
      match (b, Hashtbl.find_opt t k) with
      | F_buf src, Some (F_buf dst) when Array.length dst = Array.length src ->
          Array.blit src 0 dst 0 (Array.length src)
      | I_buf src, Some (I_buf dst) when Array.length dst = Array.length src ->
          Array.blit src 0 dst 0 (Array.length src)
      | F_buf src, _ -> Hashtbl.replace t k (F_buf (Array.copy src))
      | I_buf src, _ -> Hashtbl.replace t k (I_buf (Array.copy src)))
    template

let equal (a : t) (b : t) =
  let ok = ref (Hashtbl.length a = Hashtbl.length b) in
  Hashtbl.iter
    (fun k ba ->
      match Hashtbl.find_opt b k with
      | Some bb -> (
          match (ba, bb) with
          | F_buf x, F_buf y ->
              if
                not
                  (Array.length x = Array.length y
                  && Array.for_all2
                       (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
                       x y)
              then ok := false
          | I_buf x, I_buf y ->
              if not (Array.length x = Array.length y && Array.for_all2 Int64.equal x y) then
                ok := false
          | (F_buf _ | I_buf _), _ -> ok := false)
      | None -> ok := false)
    a;
  !ok

(* NaN-safe tolerance comparison for the differential fuzzing oracle:
   two NaNs (any payload) agree, two equal infinities agree, and
   finite values agree within [tolerance] relative difference.
   Returns a description of the worst divergence, with buffers walked
   in sorted key order so the report is deterministic. *)
let diff_nan_safe ~(tolerance : float) (a : t) (b : t) : string option =
  let worst = ref 0.0 and report = ref None in
  let note d msg =
    if !report = None || d > !worst then begin
      worst := d;
      report := Some msg
    end
  in
  let float_cell base off u v =
    if Float.is_nan u && Float.is_nan v then ()
    else if u = v then () (* covers equal infinities; +0.0 = -0.0 is fine *)
    else if not (Float.is_finite u && Float.is_finite v) then
      note infinity (Printf.sprintf "arg%d[%d]: %h vs %h" base off u v)
    else begin
      let denom = Float.max (Float.max (abs_float u) (abs_float v)) 1e-30 in
      let d = abs_float (u -. v) /. denom in
      if d > tolerance then
        note d (Printf.sprintf "arg%d[%d]: %.17g vs %.17g (rel diff %.3g)" base off u v d)
    end
  in
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) a [] |> List.sort Int.compare in
  if Hashtbl.length a <> Hashtbl.length b then
    Some
      (Printf.sprintf "buffer count differs: %d vs %d" (Hashtbl.length a)
         (Hashtbl.length b))
  else begin
    List.iter
      (fun k ->
        match (Hashtbl.find a k, Hashtbl.find_opt b k) with
        | F_buf x, Some (F_buf y) when Array.length x = Array.length y ->
            Array.iteri (fun off u -> float_cell k off u y.(off)) x
        | I_buf x, Some (I_buf y) when Array.length x = Array.length y ->
            Array.iteri
              (fun off u ->
                if not (Int64.equal u y.(off)) then
                  note infinity (Printf.sprintf "arg%d[%d]: %Ld vs %Ld" k off u y.(off)))
              x
        | _, _ -> note infinity (Printf.sprintf "arg%d: buffer shape mismatch" k))
      keys;
    !report
  end

(* Maximum relative elementwise difference between two float states —
   used when comparing across *reassociated* computations, where exact
   equality is not expected. *)
let max_rel_diff (a : t) (b : t) : float =
  let worst = ref 0.0 in
  Hashtbl.iter
    (fun k ba ->
      match (ba, Hashtbl.find_opt b k) with
      | F_buf x, Some (F_buf y) when Array.length x = Array.length y ->
          Array.iteri
            (fun i u ->
              let v = y.(i) in
              let denom = Float.max (Float.max (abs_float u) (abs_float v)) 1e-30 in
              worst := Float.max !worst (abs_float (u -. v) /. denom))
            x
      | I_buf x, Some (I_buf y) when Array.length x = Array.length y ->
          (* Integer buffers either agree exactly or count as an
             unbounded difference. *)
          Array.iteri (fun i u -> if not (Int64.equal u y.(i)) then worst := infinity) x
      | _ -> worst := infinity)
    a;
  !worst
