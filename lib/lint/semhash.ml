(* Semantic content hashing for compile caching.

   A compile result depends on exactly two things: what the function
   means and how the compiler is configured.  The validator already
   computes a canonical form for the first — the store-by-store
   {!Normal} memory a symbolic execution leaves behind — so the cache
   key is its digest whenever the function sits inside the validated
   fragment, and a digest of the printed IR (with the name normalised
   away, since a function's name never reaches codegen) as the
   conservative fallback.  The split is kept visible in the key type:
   a [Semantic] key may be shared by structurally different functions,
   a [Structural] key only by byte-identical ones, and the two spaces
   are prefixed apart so an unknown-fragment function can never
   collide with a semantic one.

   The argument signature is part of the key even though the stored
   normal forms mention argument positions: two functions can leave
   identical memories while disagreeing on an unused argument's type,
   and the cached IR's header must match the request's. *)

open Snslp_ir

type key = Semantic of string | Structural of string

let key_to_string = function
  | Semantic d -> "sem:" ^ d
  | Structural d -> "str:" ^ d

let signature (f : Defs.func) : string =
  String.concat ","
    (Array.to_list (Array.map (fun (a : Defs.arg) -> Ty.to_string a.Defs.arg_ty) f.Defs.fargs))

(* The name is irrelevant to the compile result; normalise it so
   `kernel f` and `kernel g` with the same body share a key.  [fname]
   is immutable and blocks are shared, so the rename is free. *)
let structural_digest (f : Defs.func) : string =
  Digest.to_hex (Digest.string (Printer.func_to_string { f with Defs.fname = "f" }))

let of_func (f : Defs.func) : key =
  match Validate.snapshot_digest (Validate.capture ~cache:(Validate.cache ()) f) with
  | Some d -> Semantic d
  | None -> Structural (structural_digest f)

let cache_key ~fingerprint (f : Defs.func) : string =
  fingerprint ^ "|" ^ signature f ^ "|" ^ key_to_string (of_func f)
