(* Minimal JSON emission for the bench reports ({!Report}).  Writing
   only — the harness never parses JSON back, so no external
   dependency is warranted. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape_string (s : string) =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* Shortest representation that round-trips; JSON has no NaN or
   infinity, so non-finite values degrade to null. *)
let float_repr (f : float) =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_string (json : t) =
  let buf = Buffer.create 1024 in
  let pad depth = Buffer.add_string buf (String.make (2 * depth) ' ') in
  let rec emit depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f ->
        Buffer.add_string buf (if Float.is_finite f then float_repr f else "null")
    | String s -> Buffer.add_string buf (escape_string s)
    | List [] -> Buffer.add_string buf "[]"
    | List items when List.for_all (function List _ | Obj _ -> false | _ -> true) items ->
        (* A list of scalars, such as a table row, stays on one line. *)
        Buffer.add_char buf '[';
        List.iteri
          (fun k item ->
            if k > 0 then Buffer.add_string buf ", ";
            emit depth item)
          items;
        Buffer.add_char buf ']'
    | List items ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun k item ->
            if k > 0 then Buffer.add_string buf ",\n";
            pad (depth + 1);
            emit (depth + 1) item)
          items;
        Buffer.add_char buf '\n';
        pad depth;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun k (key, v) ->
            if k > 0 then Buffer.add_string buf ",\n";
            pad (depth + 1);
            Buffer.add_string buf (escape_string key);
            Buffer.add_string buf ": ";
            emit (depth + 1) v)
          fields;
        Buffer.add_char buf '\n';
        pad depth;
        Buffer.add_char buf '}'
  in
  emit 0 json;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let write (path : string) (json : t) : unit =
  let dir = Filename.dirname path in
  if dir <> "." && not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Out_channel.with_open_text path (fun oc -> output_string oc (to_string json))
