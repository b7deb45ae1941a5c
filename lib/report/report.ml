(* One report per bench experiment.  The experiment fills in typed
   cells once; the text table, the verdict lines and the JSON envelope
   are all read from the same record, so they cannot disagree. *)

type format =
  | Fixed of int
  | Times of int
  | Percent of int
  | Signed_percent of int
  | General
  | Plus_minus of int
  | Bar of float

type cell = Text of string | Int of int | Num of float * format | Bool of bool | Missing
type table = { caption : string; columns : string list; rows : cell list list }
type criterion = { name : string; value : cell; limit : string; pass : bool }

type t = {
  experiment : string;
  title : string;
  config : (string * cell) list;
  tables : table list;
  values : (string * cell) list;
  criteria : criterion list;
  notes : string list;
}

let show = function
  | Text s -> s
  | Int n -> string_of_int n
  | Num (v, Fixed d) -> Printf.sprintf "%.*f" d v
  | Num (v, Times d) -> Printf.sprintf "%.*fx" d v
  | Num (v, Percent d) -> Printf.sprintf "%.*f%%" d (100.0 *. v)
  | Num (v, Signed_percent d) -> Printf.sprintf "%+.*f%%" d (100.0 *. v)
  | Num (v, General) -> Printf.sprintf "%g" v
  | Num (v, Plus_minus d) -> Printf.sprintf "±%.*f" d v
  | Num (v, Bar max_value) -> Table.bar ~max_value v
  | Bool b -> if b then "yes" else "no"
  | Missing -> "-"

let number = function Int n -> float_of_int n | Num (v, _) -> v | _ -> nan

let bound ~op ~ok name value limit =
  let unit = match value with Num (_, Times _) -> "x" | _ -> "" in
  let limit_text = Printf.sprintf "%s %g%s" op limit unit in
  { name; value; limit = limit_text; pass = ok (number value) limit }

let at_most = bound ~op:"<=" ~ok:( <= )
let at_least = bound ~op:">=" ~ok:( >= )
let equals name value want =
  { name; value = Int value; limit = Printf.sprintf "= %d" want; pass = value = want }
let holds name b = { name; value = Bool b; limit = "= yes"; pass = b }
let pass t = List.for_all (fun c -> c.pass) t.criteria

let to_text t =
  let b = Buffer.create 4096 in
  let line fmt = Printf.bprintf b ("  " ^^ fmt ^^ "\n") in
  Buffer.add_string b (Table.section t.title);
  if t.config <> [] then
    line "config: %s"
      (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ show v) t.config));
  List.iter
    (fun tb ->
      if tb.rows <> [] then begin
        if List.length t.tables > 1 then Printf.bprintf b "\n%s:\n" tb.caption;
        Buffer.add_string b
          (Table.render ~headers:tb.columns (List.map (List.map show) tb.rows))
      end)
    t.tables;
  List.iter (fun (k, v) -> line "%s: %s" k (show v)) t.values;
  List.iter (fun n -> line "%s" n) t.notes;
  List.iter
    (fun c ->
      line "%s: %s (%s): %s" c.name (show c.value) c.limit (if c.pass then "PASS" else "FAIL"))
    t.criteria;
  Buffer.contents b

let json_of_cell = function
  | Text s -> Json.String s
  | Int n -> Json.Int n
  | Num (v, _) -> Json.Float v
  | Bool b -> Json.Bool b
  | Missing -> Json.Null

let to_json t =
  let fields kvs = Json.Obj (List.map (fun (k, v) -> (k, json_of_cell v)) kvs) in
  Json.Obj
    [
      ("schema", Json.String "snslp-bench/2");
      ("experiment", Json.String t.experiment);
      ("config", fields t.config);
      ( "tables",
        Json.List
          (List.map
             (fun tb ->
               Json.Obj
                 [
                   ("name", Json.String tb.caption);
                   ("columns", Json.List (List.map (fun c -> Json.String c) tb.columns));
                   ( "rows",
                     Json.List
                       (List.map (fun row -> Json.List (List.map json_of_cell row)) tb.rows) );
                 ])
             t.tables) );
      ("values", fields t.values);
      ( "criteria",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("name", Json.String c.name);
                   ("value", json_of_cell c.value);
                   ("limit", Json.String c.limit);
                   ("pass", Json.Bool c.pass);
                 ])
             t.criteria) );
      ("pass", Json.Bool (pass t));
    ]

let finish ~path t =
  print_string (to_text t);
  Json.write path (to_json t);
  Printf.printf "  wrote %s\n%!" path;
  if pass t then 0 else 1
