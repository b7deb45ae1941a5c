(* Int-keyed hash tables with an inline mixing hash.  The bucket index
   is the hash's low bits, so every bit of the key must reach them:
   the high half is folded onto the low half, the product spreads the
   low bits upward, and the last fold brings them back down. *)

let hash k =
  let h = (k lxor (k lsr 32)) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 29)

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = hash
end)
