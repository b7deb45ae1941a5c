(* The traced run: the daemon's request stream replayed in-process
   against one long-lived [Server.t], for the per-layer split.

   Each request gets one span around [Server.serve] on an in-memory
   queue.  The server's own calls are not instrumented, so the layer
   spans are replays: after [serve] answers, the public calls it made
   for that request run again under their own spans
   ([Protocol.read_request], [Frontend.parse], [Lower.lower_kernel],
   [Semhash.structural_digest], [Semhash.cache_key], [Pipeline.run],
   [Printer.pp_func], [Protocol.write_response]).  Which calls it made
   follows from the reply's status and a model of the server's lookup
   indexes ([model]).  A span records wall
   time and its [Gc.minor_words] delta; the server's self time is its
   span minus that request's layer spans.  Totals accumulate by name in
   [sums]. *)

open Snslp_ir
open Snslp_frontend
open Snslp_vectorizer
open Snslp_passes
module Server = Snslp_service.Server
module Protocol = Snslp_service.Protocol
module Semhash = Snslp_lint.Semhash

let now = Daemon.now

let reader lines =
  let q = Queue.of_seq (List.to_seq lines) in
  fun () -> Queue.take_opt q

(* One conversation of one request; the response lines. *)
let serve server lines =
  let out = ref [] in
  Server.serve server ~reader:(reader lines) ~writer:(fun l -> out := l :: !out);
  List.rev !out

let prewarmed ~capacity prewarm =
  let server = Server.create ~capacity () in
  List.iter (fun r -> ignore (serve server (Gen.frame_lines r))) prewarm;
  server

(* The replay without spans, for the GC counters around it: the
   runtime's share of the daemon's work. *)
let plain ~capacity ~prewarm (reqs : Gen.request list) =
  let server = prewarmed ~capacity prewarm in
  let frames = List.map Gen.frame_lines reqs in
  let g0 = Gc.quick_stat () in
  List.iter (fun l -> ignore (serve server l)) frames;
  (g0, Gc.quick_stat ())

type request_span = {
  serve_s : float;
  self_s : float; (* [serve_s] minus the layer spans *)
  response : string list;
}

let add sums name v =
  Hashtbl.replace sums name (v +. Option.value ~default:0. (Hashtbl.find_opt sums name))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  go 0

let record_pipeline sums (res : Pipeline.result) =
  List.iter
    (fun (t : Pipeline.timing) ->
      let name = if String.equal t.Pipeline.pass "slp" then "vectorizer.slp" else "passes." ^ t.Pipeline.pass in
      add sums (name ^ "_s") t.Pipeline.seconds)
    res.Pipeline.timings;
  match res.Pipeline.vect_report with
  | None -> ()
  | Some rep ->
      let s = rep.Vectorize.stats in
      List.iter (fun (p, sec) -> add sums ("vectorizer.phase." ^ p ^ "_s") sec) (Stats.phases_sorted s);
      List.iter
        (fun (name, v) -> add sums ("vectorizer." ^ name) (float_of_int v))
        [
          ("graphs_built", s.Stats.graphs_built);
          ("graphs_vectorized", s.Stats.graphs_vectorized);
          ("gathers", s.Stats.gathers);
          ("lookahead_hits", s.Stats.lookahead_hits);
          ("lookahead_misses", s.Stats.lookahead_misses);
          ("deps_builds", s.Stats.deps_builds);
          ("pack_expansions", s.Stats.pack_expansions);
          ("revec_pairs", s.Stats.revec_pairs);
        ]

(* What the server remembers, as far as it decides which calls a
   request makes.  In front of its cache the server keeps two indexes:
   request texts it has compiled (a byte-identical resubmit skips the
   frontend) and printings whose cache key it knows (a known printing
   skips [Semhash.cache_key]).  It empties an index that reaches eight
   times the cache's capacity, so after a reset a resubmit runs the
   frontend again and a renamed hit computes its key again.  [origin]
   holds each variant's compile and the name it was compiled under: a
   hit under another name is printed again. *)
type model = {
  bound : int;
  requests : (string, string list) Hashtbl.t; (* mode and text -> kernel names *)
  printings : (string, unit) Hashtbl.t; (* fingerprint|signature|structural digest *)
  origin : (int, string * Defs.func) Hashtbl.t;
}

let remember m index key v =
  if Hashtbl.length index >= m.bound then Hashtbl.reset index;
  Hashtbl.replace index key v

(* Serve one request, then replay under spans the calls the server made
   for it. *)
let traced server m sums (r : Gen.request) =
  let lines = Gen.frame_lines r in
  let setting = Check.setting_of_mode r.Gen.mode in
  let layers = ref 0. in
  let span name f =
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let x = f () in
    let dt = now () -. t0 in
    let dw = Gc.minor_words () -. w0 in
    add sums (name ^ "_s") dt;
    layers := !layers +. dt;
    (x, dw)
  in
  let t0 = now () in
  let out = serve server lines in
  let serve_s = now () -. t0 in
  let response =
    match Protocol.read_response (reader out) with
    | Some (Ok resp) -> resp
    | Some (Error e) -> Protocol.Err e
    | None -> Protocol.Err "no response"
  in
  let status =
    match response with Protocol.Compiled { statuses = [ s ]; _ } -> s | _ -> "err"
  in
  let render g =
    let text, _ = span "ir.print" (fun () -> Check.print_func g) in
    add sums "ir.out_bytes" (float_of_int (String.length text))
  in
  let render_hit fname =
    match Hashtbl.find_opt m.origin r.Gen.variant with
    | Some (orig, g) when not (String.equal orig fname) -> render { g with Defs.fname }
    | Some _ | None -> ()
  in
  ignore (span "service.protocol.decode" (fun () -> Protocol.read_request (reader lines)));
  let text = r.Gen.mode ^ "\x00" ^ r.Gen.source in
  (match Hashtbl.find_opt m.requests text with
  | _ when String.equal status "err" -> ()
  | Some names when not (String.equal status "miss") -> List.iter render_hit names
  | Some _ | None ->
      let asts, w_parse = span "frontend.parse" (fun () -> Frontend.parse r.Gen.source) in
      let funcs, w_lower = span "frontend.lower" (fun () -> List.map Lower.lower_kernel asts) in
      add sums "frontend.alloc_words" (w_parse +. w_lower);
      List.iter
        (fun (f : Defs.func) ->
          add sums "frontend.instrs" (float_of_int (Func.num_instrs f));
          let structural, w =
            span "lint.semhash.structural" (fun () -> Semhash.structural_digest f)
          in
          add sums "lint.semhash.alloc_words" w;
          let fingerprint = match setting with None -> "o3" | Some c -> Config.fingerprint c in
          let printing = String.concat "|" [ fingerprint; Semhash.signature f; structural ] in
          (* A known printing skips the key, unless its entry is gone. *)
          if String.equal status "miss" || not (Hashtbl.mem m.printings printing) then begin
            let key, w = span "lint.semhash.key" (fun () -> Semhash.cache_key ~fingerprint f) in
            add sums "lint.semhash.alloc_words" w;
            add sums "lint.semhash.keys" 1.;
            if contains key "|sem:" then add sums "lint.semhash.semantic" 1.
          end;
          remember m m.printings printing ();
          if String.equal status "miss" then begin
            let res, w = span "passes.pipeline" (fun () -> Pipeline.run ~setting f) in
            add sums "passes.alloc_words" w;
            add sums "passes.instrs_in" (float_of_int (Func.num_instrs f));
            add sums "passes.instrs_out" (float_of_int (Func.num_instrs res.Pipeline.func));
            record_pipeline sums res;
            Hashtbl.replace m.origin r.Gen.variant (f.Defs.fname, res.Pipeline.func);
            render res.Pipeline.func
          end
          else render_hit f.Defs.fname)
        funcs;
      remember m m.requests text (List.map (fun (f : Defs.func) -> f.Defs.fname) funcs));
  ignore (span "service.protocol.encode" (fun () -> Protocol.write_response ignore response));
  { serve_s; self_s = serve_s -. !layers; response = out }

(* A replay server, pre-warmed like the daemon, that traces one
   request per call, in stream order.  The pre-warm runs through the
   same path into a table of its own, so the model starts where the
   daemon's state does. *)
let tracer ~capacity ~prewarm sums =
  let server = Server.create ~capacity () in
  let m =
    {
      bound = 8 * max 1 capacity (* [Server]'s index bound *);
      requests = Hashtbl.create 1024;
      printings = Hashtbl.create 1024;
      origin = Hashtbl.create 1024;
    }
  in
  let discarded = Hashtbl.create 64 in
  List.iter (fun r -> ignore (traced server m discarded r)) prewarm;
  traced server m sums

(* The traced replay, and beside it the same stream served without
   spans: the [Server.serve] time of that untraced replay, and the
   traced spans.  The two replays take turns request by request, each
   going first on every other request, so a drift in machine speed
   reaches both alike. *)
let paired ~capacity ~prewarm sums (reqs : Gen.request list) =
  let server = prewarmed ~capacity prewarm in
  let trace = tracer ~capacity ~prewarm sums in
  let untraced = ref 0. in
  let serve_untraced r =
    let lines = Gen.frame_lines r in
    let t0 = now () in
    ignore (serve server lines);
    untraced := !untraced +. (now () -. t0)
  in
  let spans =
    List.mapi
      (fun i r ->
        if i mod 2 = 0 then begin
          serve_untraced r;
          trace r
        end
        else
          let sp = trace r in
          serve_untraced r;
          sp)
      reqs
  in
  (!untraced, spans)
