(* Plain-text rendering of experiment tables and bar charts, so the
   bench harness can print each figure the way the paper plots it. *)

(* Display columns of a UTF-8 string: continuation bytes take none,
   so a cell holding "±" aligns with plain ones. *)
let columns s =
  String.fold_left (fun n c -> if Char.code c land 0xC0 = 0x80 then n else n + 1) 0 s

let pad ~left width s =
  let n = columns s in
  if n >= width then s
  else if left then s ^ String.make (width - n) ' '
  else String.make (width - n) ' ' ^ s

(* [render ~headers rows] prints an aligned table: the first column
   left-aligned, the rest right-aligned. *)
let render ~headers (rows : string list list) : string =
  let all = headers :: rows in
  let cols = List.length headers in
  let widths =
    List.init cols (fun c ->
        List.fold_left (fun w row -> max w (columns (List.nth row c))) 0 all)
  in
  let line row =
    String.concat "  "
      (List.mapi (fun c cell -> pad ~left:(c = 0) (List.nth widths c) cell) row)
  in
  let sep = String.concat "  " (List.map (fun w -> String.make w '-') widths) in
  String.concat "\n" (line headers :: sep :: List.map line rows) ^ "\n"

(* A unicode-free horizontal bar: value scaled to [width] columns. *)
let bar ?(width = 40) ~max_value (v : float) =
  if max_value <= 0.0 then ""
  else
    let n = int_of_float (Float.round (v /. max_value *. float_of_int width)) in
    String.make (max 0 (min width n)) '#'

let section title =
  let rule = String.make (String.length title) '=' in
  Printf.sprintf "\n%s\n%s\n" title rule
