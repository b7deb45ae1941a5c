(** Minimal JSON emission for machine-readable benchmark reports.

    The repository deliberately avoids external dependencies; this is
    the writing half of JSON only (the harness never parses it). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** non-finite values are emitted as [null] *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Pretty-printed with two-space indentation, keys in the order
    given; a list of scalars stays on one line. *)

val write : string -> t -> unit
(** [write path json] writes [to_string json] to [path], creating the
    parent directory if needed. *)
