(* perfbench — the repository benchmark: snslpd end to end, and the
   same requests split by layer.

     perfbench --daemon PATH --workload NAME --seed N --seconds S --trace 0|1

   One client drives the built snslpd over its stdio in a closed loop:
   it sends a request only after the previous reply, as the daemon's
   callers do (it serves one connection at a time).  The client and the
   daemon are the only two processes, and one of them is busy at a time.

   --trace 0 prints the end-to-end metrics of a stream of whole rounds
   sized to last about --seconds ([Gen.stream_length]); a run of a
   given seed always sends the same requests, so runs differ only in
   speed.  --trace 1 sends a fixed number of requests, then replays
   them in-process twice, with and without spans ([Replay]), and
   prints the per-layer metrics; their counts repeat exactly for a
   given seed.  Every reply is checked after the stream ([Check]); the
   last line of output is one JSON object with the result. *)

module Protocol = Snslp_service.Protocol
module Cache = Snslp_service.Cache
module Registry = Snslp_kernels.Registry

let now = Daemon.now

(* Per-request deadline: the largest translation unit compiles in
   well under a second. *)
let timeout = 30.

type sample = {
  req : Gen.request;
  reply : (Protocol.response, string) result; (* [Error]: no reply *)
  rtt : float; (* first frame line written to last response line read *)
}

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let percentile p a =
  let n = Array.length a in
  if n = 0 then (0., 0)
  else
    let i = max 0 (min (n - 1) (int_of_float (ceil (p /. 100. *. float_of_int n)) - 1)) in
    (a.(i), n - 1 - i)

let median xs = fst (percentile 50. (sorted xs))

(* The highest of p99/p95/p90 with at least 10 samples beyond it (p90
   when none has). *)
let tail a =
  let rec go = function
    | [] -> invalid_arg "tail"
    | [ p ] -> (p, percentile p a)
    | p :: rest ->
        let (_, beyond) as v = percentile p a in
        if beyond >= 10 then (p, v) else go rest
  in
  go [ 99.; 95.; 90. ]

let ratio a b = if b = 0. then 0. else a /. b

(* The machine's speed.  A virtual machine that shares its host can
   change speed by a third within minutes (seen on a 2-core x86 VM),
   more than any change worth gating.  So once per round, between two
   requests, the client times this fixed computation of the standard
   library's alone, and the end-to-end times are scaled to the speed at
   which it takes [nominal_s], its median on that VM.  The launcher pins
   the client and the daemon to one CPU, so the reference runs where the
   daemon does: on that VM, over runs minutes apart, its time tracked
   the daemon's throughput with a correlation of -0.89 to -0.99.  The
   reference uses no code of this repository, so a change to the
   compiler or the daemon cannot move it.  The raw figures are printed
   beside the scaled ones. *)
let reference_buffer = Bytes.make 65536 'x'

let reference () =
  let t0 = now () in
  let h = Hashtbl.create 16 in
  for i = 0 to 4000 do
    Hashtbl.replace h (i * 7919) (string_of_int i)
  done;
  for _ = 1 to 2 do
    ignore (Digest.bytes reference_buffer)
  done;
  ignore (List.sort compare (List.init 4000 (fun i -> i * 31 mod 1000)));
  now () -. t0

let nominal_s = 1.7e-3

let setup exe ~capacity (prewarm : Gen.request list) =
  let t0 = now () in
  let d = Daemon.spawn exe ~capacity in
  ignore (Daemon.stats d ~timeout);
  List.iter
    (fun r ->
      match Daemon.request d (Gen.frame r) ~timeout with
      | Protocol.Compiled { statuses = [ "miss" ]; _ } -> ()
      | Protocol.Compiled _ | Protocol.Err _ | Protocol.Stats_reply _ ->
          raise (Daemon.Failed "a pre-warm request did not miss"))
    prewarm;
  (d, now () -. t0)

(* The request stream.  [between n] runs before request [n], outside
   its round trip.  A request without a reply ends the stream; the main
   program counts it and every later request as failed. *)
let stream d (s : Gen.stream) ~count ~corrupt ~between =
  let samples = ref [] and n = ref 0 and dead = ref false in
  while (not !dead) && !n < count do
    between !n;
    let req = s.Gen.next () in
    let text = Gen.frame req in
    let s0 = now () in
    let reply =
      try Ok (Daemon.request d text ~timeout)
      with Daemon.Failed e ->
        dead := true;
        Error e
    in
    let rtt = now () -. s0 in
    let reply =
      match reply with
      | Ok (Protocol.Compiled { statuses; ir }) when !n = corrupt ->
          Ok (Protocol.Compiled { statuses; ir = ir ^ "!" })
      | r -> r
    in
    samples := { req; reply; rtt } :: !samples;
    incr n
  done;
  List.rev !samples

let metric name unit value = (name, unit, value)

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun (name, unit, v) -> Printf.printf "metric %-34s %.6g %s\n" name v unit) metrics;
  let number v =
    if not (Float.is_finite v) then "0"
    else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (number v) unit)
          metrics))

let passes =
  [ "fold"; "simplify"; "cse"; "unroll"; "ifconv"; "jam"; "fold2"; "simplify2"; "cse2"; "revec"; "dce"; "verify" ]

let phases = [ "deps"; "graph"; "massage"; "reorder"; "cost"; "codegen"; "reduction"; "pack" ]

(* The per-layer metrics of a traced run: [spans] and [sums] from the
   tracer, [untraced_s] from the replay served beside it without spans,
   [gc] from the replay without spans. *)
let per_layer ~stats ~sums ~spans ~untraced_s ~gc (samples : sample list) ~cycles =
  let g0, g1 = gc in
  let sum name = Option.value ~default:0. (Hashtbl.find_opt sums name) in
  let stat name =
    match List.assoc_opt name stats with Some v -> float_of_string v | None -> 0.
  in
  let mismatches =
    List.fold_left2
      (fun acc s (sp : Replay.request_span) ->
        let replayed =
          match Protocol.read_response (Replay.reader sp.Replay.response) with
          | Some (Ok r) -> Ok r
          | Some (Error e) -> Error e
          | None -> Error "no response"
        in
        if replayed = s.reply then acc else acc + 1)
      0 samples spans
  in
  let io =
    List.map2 (fun s (sp : Replay.request_span) -> s.rtt -. sp.Replay.serve_s) samples spans
  in
  let self = List.map (fun (sp : Replay.request_span) -> sp.Replay.self_s) spans in
  let served = List.fold_left (fun acc (sp : Replay.request_span) -> acc +. sp.Replay.serve_s) 0. spans in
  let n = float_of_int (List.length samples) in
  let words = float_of_int (Sys.word_size / 8) in
  let o3_cycles, cycles = cycles in
  let metrics =
    [
      metric "snslpd.io_us_p50" "us" (median io *. 1e6);
      metric "service.server.self_us_p50" "us" (median self *. 1e6);
      metric "service.protocol.decode_s" "s" (sum "service.protocol.decode_s");
      metric "service.protocol.encode_s" "s" (sum "service.protocol.encode_s");
      metric "service.cache.hit_rate" "fraction" (stat "hit_rate");
      metric "service.cache.hits_textual" "count" (stat "hits_textual");
      metric "service.cache.hits_semantic" "count" (stat "hits_semantic");
      metric "service.cache.misses" "count" (stat "misses");
      metric "service.cache.evictions" "count" (stat "evictions");
      metric "frontend.parse_s" "s" (sum "frontend.parse_s");
      metric "frontend.lower_s" "s" (sum "frontend.lower_s");
      metric "frontend.instrs_per_s" "instrs/s"
        (ratio (sum "frontend.instrs") (sum "frontend.parse_s" +. sum "frontend.lower_s"));
      metric "frontend.alloc_mwords" "Mwords" (sum "frontend.alloc_words" /. 1e6);
      metric "lint.semhash.structural_s" "s" (sum "lint.semhash.structural_s");
      metric "lint.semhash.key_s" "s" (sum "lint.semhash.key_s");
      metric "lint.semhash.semantic_share" "fraction"
        (ratio (sum "lint.semhash.semantic") (sum "lint.semhash.keys"));
      metric "lint.semhash.alloc_mwords" "Mwords" (sum "lint.semhash.alloc_words" /. 1e6);
    ]
    @ List.map (fun p -> metric ("passes." ^ p ^ "_s") "s" (sum ("passes." ^ p ^ "_s"))) passes
    @ [
        metric "passes.instrs_in" "count" (sum "passes.instrs_in");
        metric "passes.instrs_out" "count" (sum "passes.instrs_out");
        metric "passes.alloc_mwords" "Mwords" (sum "passes.alloc_words" /. 1e6);
        metric "vectorizer.slp_s" "s" (sum "vectorizer.slp_s");
      ]
    @ List.map
        (fun p ->
          metric ("vectorizer.phase." ^ p ^ "_s") "s" (sum ("vectorizer.phase." ^ p ^ "_s")))
        phases
    @ [
        metric "vectorizer.graphs_built" "count" (sum "vectorizer.graphs_built");
        metric "vectorizer.graphs_vectorized" "count" (sum "vectorizer.graphs_vectorized");
        metric "vectorizer.vectorized_share" "fraction"
          (ratio (sum "vectorizer.graphs_vectorized") (sum "vectorizer.graphs_built"));
        metric "vectorizer.gathers" "count" (sum "vectorizer.gathers");
        metric "vectorizer.lookahead_hit_rate" "fraction"
          (ratio (sum "vectorizer.lookahead_hits")
             (sum "vectorizer.lookahead_hits" +. sum "vectorizer.lookahead_misses"));
        metric "vectorizer.deps_builds" "count" (sum "vectorizer.deps_builds");
        metric "vectorizer.pack_expansions" "count" (sum "vectorizer.pack_expansions");
        metric "vectorizer.revec_pairs" "count" (sum "vectorizer.revec_pairs");
        metric "ir.print_s" "s" (sum "ir.print_s");
        metric "ir.out_kbytes" "kB" (sum "ir.out_bytes" /. 1e3);
        metric "simperf.cycles" "cycles" cycles;
        metric "simperf.o3_cycles" "cycles" o3_cycles;
        metric "gc.minor_mwords_per_req" "Mwords"
          (ratio (g1.Gc.minor_words -. g0.Gc.minor_words) n /. 1e6);
        metric "gc.major_collections" "count"
          (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
        metric "gc.top_heap_mb" "MB"
          (float_of_int g1.Gc.top_heap_words *. words /. 1048576.);
        metric "trace.overhead_share" "fraction" (ratio (served -. untraced_s) untraced_s);
      ]
  in
  (metrics, mismatches)

let usage =
  "perfbench --daemon PATH --workload cold-kernels|cold-tu|warm-edit --seed N --seconds S \
   --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let daemon = ref "" and requests = ref 0 and capacity = ref Cache.default_capacity in
  let corrupt = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME cold-kernels, cold-tu or warm-edit");
      ("--seed", Arg.Set_int seed, "N seed of the generated requests");
      ("--seconds", Arg.Set_float seconds, "S length of the timed stream");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or the per-layer split");
      ("--daemon", Arg.Set_string daemon, "PATH the snslpd executable");
      ("--requests", Arg.Set_int requests, "N send exactly N requests");
      ("--capacity", Arg.Set_int capacity, "N the daemon's cache capacity");
      ("--corrupt", Arg.Set_int corrupt, "K corrupt reply K before the checks (self-test)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match Gen.find !workload with
    | Some w -> w
    | None ->
        prerr_endline usage;
        exit 2
  in
  if not (Sys.file_exists !daemon) then begin
    Printf.eprintf "perfbench: no snslpd at %S\n" !daemon;
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let capacity = !capacity and traced = !trace = 1 in
  let s = Gen.make w ~seed:!seed ~capacity in
  let count =
    if !requests > 0 then !requests
    else if traced then w.Gen.trace_rounds * s.Gen.round
    else Gen.stream_length w s ~seconds:!seconds
  in
  Check.check_modes
    (Gen.print
       (Gen.scaled (Gen.parse_one (Option.get (Registry.find "milc_su3_loop")).Registry.source) 0));
  (* The first set-up brings up the daemon under test; the others spawn
     and stop a second daemon at even intervals of the stream, so
     setup_s sees the same machine as the requests do. *)
  let d, first = setup !daemon ~capacity s.Gen.prewarm in
  let setup_times = ref [ first ] and references = ref [] in
  let every = max 1 (count / w.Gen.setups) in
  let between n =
    if n mod s.Gen.round = 0 then references := reference () :: !references;
    if n > 0 && n mod every = 0 && List.length !setup_times < w.Gen.setups then begin
      let other, t = setup !daemon ~capacity s.Gen.prewarm in
      Daemon.stop other;
      setup_times := t :: !setup_times
    end
  in
  let samples = stream d s ~count ~corrupt:!corrupt ~between in
  let setup_s = median !setup_times in
  let stats, rss =
    try
      let stats = Daemon.stats d ~timeout in
      let rss = Daemon.peak_rss_mb d in
      Daemon.stop d;
      (stats, rss)
    with Daemon.Failed e ->
      Printf.eprintf "perfbench: daemon lost after the stream: %s\n" e;
      Daemon.kill d;
      ([], 0.)
  in
  (* The replays run before the checks, while the process holds little
     besides the stream. *)
  let sums = Hashtbl.create 64 in
  let replays =
    if traced then begin
      let reqs = List.map (fun x -> x.req) samples in
      let gc = Replay.plain ~capacity ~prewarm:s.Gen.prewarm reqs in
      Some (gc, Replay.paired ~capacity ~prewarm:s.Gen.prewarm sums reqs)
    end
    else None
  in
  let checker = Check.create () in
  let verdicts = List.map (fun x -> (x, Check.check checker x.req x.reply)) samples in
  let attempted = max count (List.length samples) in
  let failed =
    List.length (List.filter (fun (_, v) -> v.Check.error <> None) verdicts)
    + (attempted - List.length samples)
  in
  let shown = ref 0 in
  List.iter
    (fun (x, v) ->
      match v.Check.error with
      | Some e when !shown < 5 ->
          incr shown;
          Printf.eprintf "perfbench: request %s/%s failed: %s\n" (Gen.kind_name x.req.Gen.kind)
            x.req.Gen.mode e
      | Some _ | None -> ())
    verdicts;
  (* Each request must land on the cache level it was generated for. *)
  let statuses = Hashtbl.create 16 in
  let misrouted = ref 0 in
  List.iter
    (fun x ->
      match x.reply with
      | Ok (Protocol.Compiled { statuses = got; _ }) ->
          let got = String.concat "," got in
          let key = (Gen.kind_name x.req.Gen.kind, got) in
          Hashtbl.replace statuses key (1 + Option.value ~default:0 (Hashtbl.find_opt statuses key));
          if not (String.equal got x.req.Gen.status) then incr misrouted
      | Ok (Protocol.Err _ | Protocol.Stats_reply _) | Error _ -> ())
    samples;
  List.iter
    (fun ((kind, got), n) -> Printf.printf "status %s %s %d\n" kind got n)
    (List.sort compare (List.of_seq (Hashtbl.to_seq statuses)));
  Printf.printf "misrouted %d\n" !misrouted;
  List.iter (fun (k, v) -> Printf.printf "daemon %s %s\n" k v) stats;
  let priced = List.filter_map (fun (_, v) -> v.Check.cycles) verdicts in
  let cycles =
    List.fold_left (fun (o, c) (o', c') -> (o +. o', c +. c')) (0., 0.) priced
  in
  let metrics, mismatches =
    match replays with
    | Some (gc, (untraced_s, spans)) ->
        per_layer ~stats ~sums ~spans ~untraced_s ~gc samples ~cycles
    | None ->
      let rtts = List.filter_map (fun x -> if Result.is_ok x.reply then Some x.rtt else None) samples in
      let completed = sorted (List.map (fun s -> s *. 1e3) rtts) in
      let p, (tail_ms, beyond) = tail completed in
      Printf.printf "tail p%g over %d requests, %d beyond it\n" p (Array.length completed) beyond;
      let reference_s = median !references in
      let speed = nominal_s /. reference_s in
      Printf.printf "machine speed %.4f: reference %.4f ms, nominal %.4f ms\n" speed
        (reference_s *. 1e3) (nominal_s *. 1e3);
      (* Throughput and median latency per round, then the median over
         the rounds: a burst of load from outside the benchmark moves a
         few rounds, not the median. *)
      let rounds =
        let ok = Array.of_list rtts in
        let len = min s.Gen.round (Array.length ok) in
        List.init (max 1 (Array.length ok / max 1 len)) (fun k -> Array.sub ok (k * len) len)
      in
      let rates =
        List.map (fun r -> ratio (float_of_int (Array.length r)) (Array.fold_left ( +. ) 0. r)) rounds
      in
      let p50s = List.map (fun r -> median (Array.to_list r) *. 1e3) rounds in
      (* The paper's Fig. 5 ratio, o3 cycles over served cycles: the
         geomean over the (kernel, mode) pairs of each pair's geomean
         over its responses.  Every pair weighs the same whatever the
         seed's draws, so the figure changes only with the code. *)
      let speedup =
        let pairs = Hashtbl.create 64 in
        List.iter
          (fun (x, v) ->
            match v.Check.cycles with
            | Some (o3, c) ->
                let key = (x.req.Gen.base.Gen.reg.Registry.name, x.req.Gen.mode) in
                let sum, n = Option.value ~default:(0., 0) (Hashtbl.find_opt pairs key) in
                Hashtbl.replace pairs key (sum +. log (o3 /. c), n + 1)
            | None -> ())
          verdicts;
        let logs = Hashtbl.fold (fun _ (sum, n) acc -> (sum /. float_of_int n) :: acc) pairs [] in
        match logs with
        | [] -> 1.
        | _ -> exp (List.fold_left ( +. ) 0. logs /. float_of_int (List.length logs))
      in
      (* Times scale with the machine's speed: a rate divides by it. *)
      let times =
        [
          ("requests_per_s", "req/s", median rates, 1. /. speed);
          ("latency_p50_ms", "ms", median p50s, speed);
          ("latency_tail_ms", "ms", tail_ms, speed);
          ("setup_s", "s", setup_s, speed);
        ]
      in
      List.iter (fun (name, unit, v, _) -> Printf.printf "raw %s %.6g %s\n" name v unit) times;
      ( List.map (fun (name, unit, v, k) -> metric name unit (v *. k)) times
        @ [
            metric "success_rate" "fraction"
              (1. -. ratio (float_of_int failed) (float_of_int attempted));
            metric "sim_speedup_geomean" "x" speedup;
            metric "peak_rss_mb" "MB" rss;
          ],
        0 )
  in
  if mismatches > 0 then Printf.printf "replay differs from the daemon on %d requests\n" mismatches;
  print_result
    ~correct:(failed = 0 && !misrouted = 0 && mismatches = 0 && stats <> [])
    ~attempted:(max 1 attempted) ~failed metrics
