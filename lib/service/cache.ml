(* The content-addressed compile cache.

   Keys are {!Snslp_lint.Semhash.cache_key} strings — configuration
   fingerprint, argument signature, and the semantic (or structural)
   digest of the request — so a lookup answers for any semantically
   equivalent source the validator can canonicalise, not just a
   byte-identical resubmission.  The structural digest of the request
   rides along on every operation purely for accounting; the server
   passes the parsed kernel's digest, which leaves out positions and
   the kernel's name.  A hit whose stored origin parsed differently is
   a *semantic* hit (the cache understood an equivalence), one that
   parsed identically is merely *textual* (a cache keyed on the source
   up to layout and the kernel's name would have caught it).  A [let] temporary, or [2]
   written [2.0] in a float context, changes the parse but not the
   lowered IR, so such a variant hits semantically.

   Eviction is LRU over a fixed entry budget, implemented as a
   last-use clock per entry and a linear scan on overflow — capacities
   are small (hundreds) and insertion already paid for a full
   compile, so the O(n) scan is noise. *)

type outcome = Hit_semantic | Hit_textual | Miss

let outcome_to_string = function
  | Hit_semantic -> "hit-semantic"
  | Hit_textual -> "hit-textual"
  | Miss -> "miss"

type 'a entry = { value : 'a; structural : string; mutable last_used : int }

type counters = {
  hits_semantic : int;
  hits_textual : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

type 'a t = {
  cap : int;
  table : (string, 'a entry) Hashtbl.t;
  mutable clock : int;
  mutable hits_semantic : int;
  mutable hits_textual : int;
  mutable misses : int;
  mutable evictions : int;
}

let default_capacity = 256

let create ?(capacity = default_capacity) () =
  {
    cap = max 1 capacity;
    table = Hashtbl.create 64;
    clock = 0;
    hits_semantic = 0;
    hits_textual = 0;
    misses = 0;
    evictions = 0;
  }

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let find t ~key ~structural : ('a * outcome) option =
  match Hashtbl.find_opt t.table key with
  | None ->
      t.misses <- t.misses + 1;
      None
  | Some e ->
      e.last_used <- tick t;
      let outcome =
        if String.equal e.structural structural then Hit_textual else Hit_semantic
      in
      (match outcome with
      | Hit_semantic -> t.hits_semantic <- t.hits_semantic + 1
      | Hit_textual | Miss -> t.hits_textual <- t.hits_textual + 1);
      Some (e.value, outcome)

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun key e acc ->
        match acc with
        | Some (_, last) when last <= e.last_used -> acc
        | _ -> Some (key, e.last_used))
      t.table None
  in
  match victim with
  | Some (key, _) ->
      Hashtbl.remove t.table key;
      t.evictions <- t.evictions + 1
  | None -> ()

let add t ~key ~structural value =
  if not (Hashtbl.mem t.table key) then begin
    if Hashtbl.length t.table >= t.cap then evict_lru t;
    Hashtbl.replace t.table key { value; structural; last_used = tick t }
  end

(* The exact-match request path: the caller proved byte-identity
   upstream, so a hit is textual by definition and needs no
   structural digest. *)
let find_exact t ~key =
  match Hashtbl.find_opt t.table key with
  | None ->
      t.misses <- t.misses + 1;
      None
  | Some e ->
      e.last_used <- tick t;
      t.hits_textual <- t.hits_textual + 1;
      Some e.value

let mem t key = Hashtbl.mem t.table key

let counters t =
  {
    hits_semantic = t.hits_semantic;
    hits_textual = t.hits_textual;
    misses = t.misses;
    evictions = t.evictions;
    entries = Hashtbl.length t.table;
    capacity = t.cap;
  }

let hit_rate (c : counters) =
  let hits = c.hits_semantic + c.hits_textual in
  let total = hits + c.misses in
  if total = 0 then 0.0 else float_of_int hits /. float_of_int total
