(* The compile service.

   One server owns one compile cache and serves one conversation at a
   time over {!Protocol}'s reader/writer pair.  Lookups descend three
   levels, each strictly cheaper than the one below it:

   1. the request index — a digest of the raw (mode, source) pair.
      A byte-identical resubmission is answered from the cached
      rendering without even running the frontend;
   2. the structural index — a digest of the parsed function's
      printing.  A whitespace- or comment-level variant pays the
      frontend but skips the symbolic executor;
   3. the semantic key ({!Snslp_lint.Semhash.cache_key}) — the
      canonical form of what the function stores.  A reassociated or
      algebraically simplified variant lands on the same entry here.

   Only the misses that survive all three compile, one
   {!Pipeline.run} each, grouped by mode in first-seen order; within a
   batch, identical misses are deduplicated by cache key, so the
   second requester waits for the first compile instead of repeating
   it.

   The cached value is the optimised function plus its rendering under
   the origin's name.  A hit under the same name replays the rendering
   verbatim — byte-identical to the fresh compile that produced it —
   and a hit under a different name re-prints a renamed record copy
   ([fname] is immutable and blocks are shared, so the rename is
   cheap).

   Latency accounting is what a synchronous client observes: every
   request in a batch records the whole batch's elapsed time, a lone
   compile records its own, both read on the compile's monotonic
   clock ({!Stats.now_s}).  Counters and latencies both stay fixed in
   size however long the server runs: the misses' counters are added
   into one record, the latencies fill a ring. *)

open Snslp_ir
open Snslp_passes
open Snslp_vectorizer
module Semhash = Snslp_lint.Semhash

type cached = {
  cfunc : Defs.func; (* the optimised function, under its origin name *)
  corig : string; (* the origin's fname *)
  cprint : string; (* [cfunc] rendered, memoised *)
}

type t = {
  cache : cached Cache.t;
  request_index : (string, (string * string) list) Hashtbl.t;
      (* digest of mode+source -> (fname, cache key) per kernel the
         request defines, in definition order *)
  structural_index : (string, string) Hashtbl.t;
      (* fingerprint|signature|structural-digest -> semantic cache
         key, so the symbolic executor runs once per distinct
         printing *)
  index_bound : int;
      (* both indexes reset when they outgrow this — entries go stale
         as the cache evicts, and {!Cache.mem} probes already guard
         correctness, so a reset only costs refills *)
  window : float array;
      (* the latest [window_size] request latencies, a ring: request
         number [k] (from 0) lands in slot [k mod window_size] *)
  mutable latency_sum_s : float; (* over every request served *)
  mutable served : int;
  stats : Stats.t;
      (* every miss's counters record added into one, kept for the
         server's lifetime — hits replay renderings and add nothing,
         so these measure the work the cache did NOT absorb *)
}

(* Enough samples for a stable p99 (about 40 beyond it), while [stats]
   sorts a fixed 32 KiB however long the daemon has run. *)
let window_size = 4096

let create ?capacity () =
  let cache = Cache.create ?capacity () in
  {
    cache;
    request_index = Hashtbl.create 64;
    structural_index = Hashtbl.create 64;
    index_bound = 8 * (Cache.counters cache).Cache.capacity;
    window = Array.make window_size 0.0;
    latency_sum_s = 0.0;
    served = 0;
    stats = Stats.create ();
  }

let cache t = t.cache

(* A mode string is the vectorizer mode, optionally followed by
   "+PACKING" and/or "/urPOLICY" and/or "@TARGET[+revec]" — e.g.
   "sn-slp+global", "sn-slp+global:8:1024", "lslp+greedy",
   "sn-slp/urnone", "sn-slp/ur4", "sn-slp@avx512",
   "sn-slp+global@avx512+revec".  Every choice lands in the config
   and hence in [Config.fingerprint], so cached entries never cross
   packing modes, unroll policies or targets ("sn-slp" and
   "sn-slp+greedy" do share: same config; "sn-slp" and
   "sn-slp/urauto" likewise).  "@TARGET" also selects the target's
   machine-model flavour ([Model.for_target]), so "sn-slp@sse" prices
   with the x86 table where bare "sn-slp" keeps the paper's didactic
   model — the two deliberately never share cache entries. *)
let setting_of_mode (m : string) : (Pipeline.setting, string) result =
  (* The '@' suffix is stripped first: its payload may itself contain
     '+' ("@avx512+revec"), which must not reach the packing split. *)
  let m, tgt =
    match String.rindex_opt m '@' with
    | Some k ->
        (String.sub m 0 k, Some (String.sub m (k + 1) (String.length m - k - 1)))
    | None -> (m, None)
  in
  let tgt =
    match tgt with
    | None -> Ok None
    | Some s ->
        let name, revec =
          match String.index_opt s '+' with
          | Some k ->
              let flag = String.sub s (k + 1) (String.length s - k - 1) in
              (String.sub s 0 k, Some flag)
          | None -> (s, None)
        in
        let target = Snslp_costmodel.Target.by_name name in
        (match (target, revec) with
        | None, _ -> Error ("unknown target " ^ name)
        | Some t, None -> Ok (Some (t, false))
        | Some t, Some "revec" -> Ok (Some (t, true))
        | Some _, Some flag -> Error ("unknown target flag " ^ flag))
  in
  let m, unroll =
    match String.index_opt m '/' with
    | Some k ->
        let suffix = String.sub m (k + 1) (String.length m - k - 1) in
        let policy =
          if String.length suffix >= 2 && String.equal (String.sub suffix 0 2) "ur"
          then String.sub suffix 2 (String.length suffix - 2)
          else suffix (* fails unroll_of_string below with the raw text *)
        in
        (String.sub m 0 k, Some policy)
    | None -> (m, None)
  in
  let base, packing =
    match String.index_opt m '+' with
    | Some k ->
        (String.sub m 0 k, Some (String.sub m (k + 1) (String.length m - k - 1)))
    | None -> (m, None)
  in
  let with_target (c : Config.t) =
    match tgt with
    | Error e -> Error e
    | Ok None -> Ok (Some c)
    | Ok (Some (target, revec)) ->
        Ok
          (Some
             {
               c with
               Config.target;
               model = Snslp_costmodel.Model.for_target target;
               revec;
             })
  in
  let with_unroll (c : Config.t) =
    match unroll with
    | None -> with_target c
    | Some u -> (
        match Config.unroll_of_string u with
        | Some unroll -> with_target { c with Config.unroll }
        | None -> Error ("unknown unroll policy " ^ u))
  in
  let with_packing (c : Config.t) =
    match packing with
    | None -> with_unroll c
    | Some p -> (
        match Config.packing_of_string p with
        | Some packing -> with_unroll { c with Config.packing }
        | None -> Error ("unknown packing " ^ p))
  in
  match base with
  | "o3" -> (
      match (packing, unroll, tgt) with
      | None, None, Ok None -> Ok None
      | _, _, (Error _ | Ok (Some _)) -> Error "mode o3 takes no target suffix"
      | Some _, _, _ -> Error "mode o3 takes no packing suffix"
      | _, Some _, _ -> Error "mode o3 takes no unroll suffix")
  | "slp" -> with_packing Config.vanilla
  | "lslp" -> with_packing Config.lslp
  | "sn-slp" -> with_packing Config.snslp
  | _ -> Error ("unknown mode " ^ base)

let fingerprint_of_setting = function
  | None -> "o3"
  | Some c -> Config.fingerprint c

let chomp s =
  let n = ref (String.length s) in
  while !n > 0 && (s.[!n - 1] = '\n' || s.[!n - 1] = '\r') do decr n done;
  String.sub s 0 !n

let print_func f = chomp (Printer.func_to_string f)

let remember t index key v =
  if Hashtbl.length index >= t.index_bound then Hashtbl.reset index;
  Hashtbl.replace index key v

(* Render a cached entry for a requester named [fname]: the memoised
   printing when the names agree (byte-for-byte what the original
   compile answered), a renamed re-print otherwise. *)
let render (c : cached) ~fname =
  if String.equal fname c.corig then c.cprint
  else print_func { c.cfunc with Defs.fname = fname }

(* --- One batch ----------------------------------------------------------- *)

type item = {
  fname : string;
  key : string; (* the semantic cache key this kernel resolved to *)
  status : string;
  body : [ `Text of string | `Cell of cached option ref ];
      (* [`Cell] for misses: filled by the grouped compile *)
}

type slot =
  | Bad of string
  | Fast of string * string list * int
      (* pre-rendered response: ir, statuses, kernel count *)
  | Items of string * item list (* request digest, per-kernel items *)

let request_digest ~mode ~source =
  Digest.to_hex (Digest.string (mode ^ "\x00" ^ source))

let handle_batch t (requests : (string * string, string) result list) :
    Protocol.response list =
  (* Misses group by mode: distinct settings compile in
     first-appearance order, for determinism. *)
  let groups :
      (string, Pipeline.setting * (Defs.func * string * string * cached option ref) list ref) Hashtbl.t =
    Hashtbl.create 4
  in
  let group_order = ref [] in
  let dedup : (string, cached option ref) Hashtbl.t = Hashtbl.create 16 in
  let lookup_func t setting (f : Defs.func) : item =
    let fingerprint = fingerprint_of_setting setting in
    let structural = Semhash.structural_digest f in
    let sidx = fingerprint ^ "|" ^ Semhash.signature f ^ "|" ^ structural in
    (* Level 2: a known printing already knows its semantic key. *)
    let key =
      match Hashtbl.find_opt t.structural_index sidx with
      | Some key when Cache.mem t.cache key -> key
      | _ -> Semhash.cache_key ~fingerprint f
    in
    remember t t.structural_index sidx key;
    match Cache.find t.cache ~key ~structural with
    | Some (c, outcome) ->
        {
          fname = f.Defs.fname;
          key;
          status = Cache.outcome_to_string outcome;
          body = `Text (render c ~fname:f.Defs.fname);
        }
    | None ->
        let cell =
          match Hashtbl.find_opt dedup key with
          | Some cell -> cell
          | None ->
              let cell = ref None in
              Hashtbl.add dedup key cell;
              let mode = fingerprint (* one group per fingerprint *) in
              let pending =
                match Hashtbl.find_opt groups mode with
                | Some (_, pending) -> pending
                | None ->
                    let pending = ref [] in
                    Hashtbl.add groups mode (setting, pending);
                    group_order := mode :: !group_order;
                    pending
              in
              pending := (f, key, structural, cell) :: !pending;
              cell
        in
        {
          fname = f.Defs.fname;
          key;
          status = Cache.outcome_to_string Cache.Miss;
          body = `Cell cell;
        }
  in
  let slots =
    List.map
      (fun req ->
        match req with
        | Error msg -> Bad msg
        | Ok (mode, source) -> (
            let rdigest = request_digest ~mode ~source in
            (* Level 1: a byte-identical request replays its cached
               renderings without touching the frontend. *)
            let fast =
              match Hashtbl.find_opt t.request_index rdigest with
              | Some bindings
                when List.for_all (fun (_, key) -> Cache.mem t.cache key) bindings ->
                  Some
                    (List.map
                       (fun (fname, key) ->
                         match Cache.find_exact t.cache ~key with
                         | Some c -> render c ~fname
                         | None -> assert false (* [mem] above *))
                       bindings)
              | _ -> None
            in
            match fast with
            | Some texts ->
                Fast
                  ( String.concat "\n" texts,
                    List.map
                      (fun _ -> Cache.outcome_to_string Cache.Hit_textual)
                      texts,
                    List.length texts )
            | None -> (
                match setting_of_mode mode with
                | Error msg -> Bad msg
                | Ok setting -> (
                    match Snslp_frontend.Frontend.compile source with
                    | exception Snslp_frontend.Frontend.Error msg -> Bad msg
                    | funcs -> Items (rdigest, List.map (lookup_func t setting) funcs)))))
      requests
  in
  (* Compile every miss, grouped by setting. *)
  List.iter
    (fun mode ->
      let setting, pending = Hashtbl.find groups mode in
      List.iter
        (fun ((f : Defs.func), key, structural, cell) ->
          let r = Pipeline.run ~setting f in
          Option.iter
            (fun rep -> Stats.add ~into:t.stats rep.Vectorize.stats)
            r.Pipeline.vect_report;
          let c =
            {
              cfunc = r.Pipeline.func;
              corig = f.Defs.fname;
              cprint = print_func r.Pipeline.func;
            }
          in
          cell := Some c;
          Cache.add t.cache ~key ~structural c)
        (List.rev !pending))
    (List.rev !group_order);
  (* Remember each slow-path request for level 1: every kernel of the
     request is now cached under its key. *)
  List.iter
    (fun slot ->
      match slot with
      | Items (rdigest, items) ->
          remember t t.request_index rdigest
            (List.map (fun it -> (it.fname, it.key)) items)
      | Bad _ | Fast _ -> ())
    slots;
  (* Render. *)
  List.map
    (fun slot ->
      match slot with
      | Bad msg -> Protocol.Err msg
      | Fast (ir, statuses, _) -> Protocol.Compiled { statuses; ir }
      | Items (_, items) ->
          let texts =
            List.map
              (fun it ->
                match it.body with
                | `Text s -> s
                | `Cell cell -> (
                    match !cell with
                    | Some c -> render c ~fname:it.fname
                    | None -> "" (* unreachable: every cell is filled above *)))
              items
          in
          Protocol.Compiled
            {
              statuses = List.map (fun it -> it.status) items;
              ir = String.concat "\n" texts;
            })
    slots

(* --- Stats ---------------------------------------------------------------- *)

(* Nearest-rank percentile of an ascending array. *)
let percentile p sorted =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let i = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) i))

let stats_reply t : Protocol.response =
  let c = Cache.counters t.cache in
  let ms x = Printf.sprintf "%.3f" (x *. 1e3) in
  let lat = Array.sub t.window 0 (min t.served window_size) in
  Array.sort Float.compare lat;
  let mean = if t.served = 0 then 0.0 else t.latency_sum_s /. float_of_int t.served in
  Protocol.Stats_reply
    [
      ("served", string_of_int t.served);
      ("hits_semantic", string_of_int c.Cache.hits_semantic);
      ("hits_textual", string_of_int c.Cache.hits_textual);
      ("misses", string_of_int c.Cache.misses);
      ("hit_rate", Printf.sprintf "%.4f" (Cache.hit_rate c));
      ("evictions", string_of_int c.Cache.evictions);
      ("entries", string_of_int c.Cache.entries);
      ("capacity", string_of_int c.Cache.capacity);
      ("mean_ms", ms mean);
      ("p50_ms", ms (percentile 50.0 lat));
      ("p99_ms", ms (percentile 99.0 lat));
      (* Global pack-selection search effort, summed over every miss
         this server compiled (greedy-packing compiles leave them 0). *)
      ("pack_candidates", string_of_int t.stats.Stats.pack_candidates);
      ("pack_expansions", string_of_int t.stats.Stats.pack_expansions);
      ("pack_pruned", string_of_int t.stats.Stats.pack_pruned);
      ("pack_plans", string_of_int t.stats.Stats.pack_plans);
      (* Revec re-widening on the same misses: adjacent bundle pairs
         re-packed into wider registers, and the wide instructions
         that replaced them (@TARGET+revec modes only; 0 otherwise). *)
      ("revec_pairs", string_of_int t.stats.Stats.revec_pairs);
      ("revec_widened", string_of_int t.stats.Stats.revec_widened);
      (* Loop-subsystem work on the same misses: loops seen, accepted
         by the counted-loop recognizer, unrolled fully/partially, and
         straight-line blocks the jam pass fused. *)
      ("loops_found", string_of_int t.stats.Stats.loops_found);
      ("loops_counted", string_of_int t.stats.Stats.loops_counted);
      ("loops_unrolled_full", string_of_int t.stats.Stats.loops_unrolled_full);
      ("loops_unrolled_partial", string_of_int t.stats.Stats.loops_unrolled_partial);
      ("loop_blocks_jammed", string_of_int t.stats.Stats.loop_blocks_jammed);
    ]

let record t dt n =
  for _ = 1 to n do
    t.window.(t.served mod window_size) <- dt;
    t.latency_sum_s <- t.latency_sum_s +. dt;
    t.served <- t.served + 1
  done

let latencies_s t =
  List.init (min t.served window_size) (fun k -> t.window.((t.served - 1 - k) mod window_size))

(* --- The conversation loop ------------------------------------------------ *)

let serve t ~(reader : unit -> string option) ~(writer : string -> unit) : unit =
  let respond r = Protocol.write_response writer r in
  let rec loop () =
    match Protocol.read_request reader with
    | None -> ()
    | Some (Error msg) ->
        respond (Protocol.Err msg);
        loop ()
    | Some (Ok Protocol.Quit) -> ()
    | Some (Ok Protocol.Stats) ->
        respond (stats_reply t);
        loop ()
    | Some (Ok (Protocol.Compile { mode; source })) ->
        let t0 = Stats.now_s () in
        let rs = handle_batch t [ Ok (mode, source) ] in
        record t (Stats.now_s () -. t0) 1;
        List.iter respond rs;
        loop ()
    | Some (Ok (Protocol.Batch n)) ->
        (* Collect the batch's frames; EOF or a non-compile frame
           inside a batch turns into an error slot, never a hang. *)
        let rec collect k acc =
          if k = 0 then List.rev acc
          else
            match Protocol.read_request reader with
            | None -> collect (k - 1) (Error "eof inside batch" :: acc)
            | Some (Error msg) -> collect (k - 1) (Error msg :: acc)
            | Some (Ok (Protocol.Compile { mode; source })) ->
                collect (k - 1) (Ok (mode, source) :: acc)
            | Some (Ok _) ->
                collect (k - 1)
                  (Error "only compile frames may appear in a batch" :: acc)
        in
        let frames = collect n [] in
        let t0 = Stats.now_s () in
        let rs = handle_batch t frames in
        record t (Stats.now_s () -. t0) n;
        List.iter respond rs;
        loop ()
  in
  loop ()
