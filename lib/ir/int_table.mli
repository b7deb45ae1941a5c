(** Hash tables keyed by ints: instruction ids, node ids and keys packed
    from them.  The generic [Hashtbl] hashes every key through a C call
    ([caml_hash]); these hash an int inline.  The hash folds the high
    half of the key into the low half before mixing, so keys that
    differ only in their high bits (ids packed above a small field)
    still spread over the buckets, whose index is the hash's low bits.

    The iteration order of a table differs from the generic [Hashtbl]'s
    for the same keys; callers that iterate must not depend on it. *)

include Hashtbl.S with type key = int

val hash : int -> int
(** The table's hash of a key. *)
