(** The one report of a bench experiment: its configuration, tables of
    typed cells, named values and pass/fail criteria.  {!finish}
    prints it as text and writes it as the [snslp-bench/2] JSON
    envelope. *)

type format =
  | Fixed of int  (** [%.*f] *)
  | Times of int  (** [%.*fx], a ratio *)
  | Percent of int  (** a fraction, shown as [%.*f%%] of 100 times it *)
  | Signed_percent of int  (** a fraction, shown as [%+.*f%%] of 100 times it *)
  | General  (** [%g] *)
  | Plus_minus of int  (** [±%.*f], a standard deviation *)
  | Bar of float  (** a ['#'] bar scaled to this maximum *)

type cell =
  | Text of string
  | Int of int
  | Num of float * format  (** written as a JSON number, [null] if not finite *)
  | Bool of bool  (** shown as [yes] / [no] *)
  | Missing  (** shown as [-], written as [null] *)

type table = { caption : string; columns : string list; rows : cell list list }

type criterion = { name : string; value : cell; limit : string; pass : bool }

type t = {
  experiment : string;  (** names the file: [BENCH_<experiment>.json] *)
  title : string;
  config : (string * cell) list;
  tables : table list;
  values : (string * cell) list;
  criteria : criterion list;
  notes : string list;  (** text only *)
}

val at_most : string -> cell -> float -> criterion
(** [at_most name value limit] passes when the number in [value] (an
    [Int] or a [Num]) is at most [limit]. *)

val at_least : string -> cell -> float -> criterion
val equals : string -> int -> int -> criterion
val holds : string -> bool -> criterion

val pass : t -> bool
(** Every criterion passes (true when there are none). *)

val to_text : t -> string
(** The section title, the configuration, every table with rows, the
    values, the notes and one verdict line per criterion. *)

val to_json : t -> Json.t

val finish : path:string -> t -> int
(** Prints [to_text t], writes [to_json t] to [path], and returns the
    exit status: 0 when [pass t], 1 otherwise. *)
