(** Interpreter memory: one typed buffer per array argument, addressed
    by (argument position, element offset). *)

open Snslp_ir

exception Out_of_bounds of string

type buffer = F_buf of float array | I_buf of int64 array
type t = (int, buffer) Hashtbl.t

val create : unit -> t

val alloc_float : t -> arg_pos:int -> size:int -> unit
val set_float_buffer : t -> arg_pos:int -> float array -> unit
val set_int_buffer : t -> arg_pos:int -> int64 array -> unit

val buffer : t -> arg_pos:int -> buffer
(** Raises {!Out_of_bounds} when nothing is bound. *)

val float_buffer : t -> arg_pos:int -> float array
val int_buffer : t -> arg_pos:int -> int64 array

val check_bounds : len:int -> base:int -> off:int -> unit
(** Raises {!Out_of_bounds} with the canonical trap text.  Exposed so
    the compiled interpreter engine traps with byte-identical messages
    to the tree-walker. *)

val read_type_error : elem:Ty.scalar -> base:int -> 'a
(** Raises [Invalid_argument] for a load whose element type disagrees
    with the buffer kind.  Shared between both interpreter engines. *)

val read : t -> elem:Ty.scalar -> base:int -> off:int -> Rvalue.t
(** Symmetric with [write]: f32 loads round, and the element type must
    match the buffer kind (float loads from integer buffers — and vice
    versa — raise {!read_type_error}). *)

val write : t -> elem:Ty.scalar -> base:int -> off:int -> Rvalue.t -> unit
(** f32 stores round. *)

val snapshot : t -> t
(** Deep copy, for before/after comparisons. *)

val restore : template:t -> t -> unit
(** Copy [template]'s contents back into the target in place (blit per
    matching buffer, fresh copy on shape mismatch).  With [snapshot],
    the cheap way to reset a scratch memory between runs. *)

val equal : t -> t -> bool
(** Bitwise, including float buffers. *)

val max_rel_diff : t -> t -> float
(** Largest elementwise relative difference; [infinity] on shape or
    integer mismatches.  For comparisons across reassociated float
    computations. *)

val diff_nan_safe : tolerance:float -> t -> t -> string option
(** NaN-safe comparison for the fuzzing oracle: matching NaNs and
    equal infinities agree, finite floats agree within [tolerance]
    relative difference, integers must match exactly.  Returns a
    deterministic description of the worst divergence, or [None] when
    the states agree. *)
