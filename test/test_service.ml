(* The compile service: semantic cache keys, the LRU cache, the wire
   protocol, and the server loop.

   The load-bearing properties:
   - semantically equivalent but structurally distinct sources share
     one cache key (reassociation; mul/div inverse cancellation), and
     the service answers the variant from the original's entry as a
     *semantic* hit;
   - functions outside the validated fragment fall back to structural
     keys and never falsely share;
   - a cache answer is byte-identical to the fresh compile of the
     same source;
   - eviction respects the entry budget, preferring the least
     recently used entry. *)

open Snslp_ir
module Semhash = Snslp_lint.Semhash
module Cache = Snslp_service.Cache
module Protocol = Snslp_service.Protocol
module Server = Snslp_service.Server

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0
let check_int = Alcotest.(check int)

let compile_one = Snslp_frontend.Frontend.compile_one

let fingerprint = "test-fp"
let key src = Semhash.cache_key ~fingerprint (compile_one src)

(* --- Semantic keys -------------------------------------------------------- *)

let reassoc_a =
  {|
kernel f(long A[], long B[], long C[], long D[], long i) {
  A[i+0] = B[i+0] - C[i+0] + D[i+0];
  A[i+1] = D[i+1] - C[i+1] + B[i+1];
}
|}

let reassoc_b =
  {|
kernel g(long A[], long B[], long C[], long D[], long i) {
  A[i+0] = D[i+0] + B[i+0] - C[i+0];
  A[i+1] = B[i+1] - C[i+1] + D[i+1];
}
|}

let test_semantic_key_reassociation () =
  check "reassociated chains share a key" true (String.equal (key reassoc_a) (key reassoc_b));
  check "but are structurally distinct" false
    (String.equal
       (Semhash.structural_digest (compile_one reassoc_a))
       (Semhash.structural_digest (compile_one reassoc_b)))

let test_semantic_key_cancellation () =
  let a =
    {|
kernel f(float A[], float B[], float C[], long i) {
  A[i+0] = B[i+0] * C[i+0] / C[i+0];
  A[i+1] = B[i+1] * C[i+1] / C[i+1];
}
|}
  in
  let b =
    {|
kernel f(float A[], float B[], float C[], long i) {
  A[i+0] = B[i+0];
  A[i+1] = B[i+1];
}
|}
  in
  check "(a*b)/b and a share a key" true (String.equal (key a) (key b))

let test_different_semantics_different_keys () =
  let a = "kernel f(long A[], long B[], long i) { A[i] = B[i] + 1; }" in
  let b = "kernel f(long A[], long B[], long i) { A[i] = B[i] + 2; }" in
  check "different stored values, different keys" false (String.equal (key a) (key b))

let test_signature_part_of_key () =
  (* Same stored behaviour, different argument types: must not share
     (the cached IR's header would not match the request's). *)
  let a = "kernel f(long A[], long B[], long i) { A[i] = B[i]; }" in
  let b = "kernel f(long A[], long B[], long i, long unused) { A[i] = B[i]; }" in
  check "signatures differ, keys differ" false (String.equal (key a) (key b))

let test_name_irrelevant_to_key () =
  let a = "kernel f(long A[], long B[], long i) { A[i] = B[i] + 1; }" in
  let b = "kernel other_name(long A[], long B[], long i) { A[i] = B[i] + 1; }" in
  check "kernel name does not reach the key" true (String.equal (key a) (key b));
  check "nor the structural digest" true
    (String.equal
       (Semhash.structural_digest (compile_one a))
       (Semhash.structural_digest (compile_one b)))

(* --- Loop kernels in the semantic key space -------------------------------- *)

(* Before the inductive validator, every loop-shaped function fell to
   the [str:] fallback and only byte-identical resubmissions hit.
   Counted loops now capture semantically: reassociated loop bodies
   share one [sem:] entry even with a symbolic trip count. *)

let loop_reassoc_a =
  {|
kernel f(double A[], double B[], double C[], double D[], long n) {
  for (long k = 0; k < n; k = k + 1) { A[k] = B[k] - C[k] + D[k]; }
}
|}

let loop_reassoc_b =
  {|
kernel g(double A[], double B[], double C[], double D[], long n) {
  for (long k = 0; k < n; k = k + 1) { A[k] = D[k] + B[k] - C[k]; }
}
|}

let test_semantic_key_loop_reassociation () =
  (match Semhash.of_func (compile_one loop_reassoc_a) with
  | Semhash.Semantic _ -> ()
  | Semhash.Structural _ ->
      Alcotest.fail "a counted loop fell to the structural fallback");
  check "reassociated loop bodies share a key" true
    (String.equal (key loop_reassoc_a) (key loop_reassoc_b));
  check "but are structurally distinct" false
    (String.equal
       (Semhash.structural_digest (compile_one loop_reassoc_a))
       (Semhash.structural_digest (compile_one loop_reassoc_b)))

(* Every loop-form registry kernel captures semantically and shares
   its key with the straight-line twin — the same computation, loop
   peeled by hand. *)
let test_semantic_key_registry_loop_twins () =
  List.iter
    (fun ((lk : Snslp_kernels.Registry.t), (tw : Snslp_kernels.Registry.t)) ->
      let fl = compile_one lk.Snslp_kernels.Registry.source in
      let ft = compile_one tw.Snslp_kernels.Registry.source in
      (match Semhash.of_func fl with
      | Semhash.Semantic _ -> ()
      | Semhash.Structural _ ->
          Alcotest.failf "%s: loop form fell to the structural fallback"
            lk.Snslp_kernels.Registry.name);
      check
        (lk.Snslp_kernels.Registry.name ^ " shares with " ^ tw.Snslp_kernels.Registry.name)
        true
        (String.equal
           (Semhash.cache_key ~fingerprint fl)
           (Semhash.cache_key ~fingerprint ft)))
    Snslp_kernels.Registry.loop_pairs

(* Disjointness guard: semantically different symbolic-trip loops get
   different semantic keys — the summary carries the full parametric
   store footprint. *)
let test_symbolic_loops_never_falsely_share () =
  let a =
    "kernel f(double A[], double B[], long n) { for (long k = 0; k < n; k = k + 1) { A[k] = B[k] + 1.0; } }"
  in
  let b =
    "kernel f(double A[], double B[], long n) { for (long k = 0; k < n; k = k + 1) { A[k] = B[k] + 2.0; } }"
  in
  let bounds =
    "kernel f(double A[], double B[], long n) { for (long k = 1; k < n; k = k + 1) { A[k] = B[k] + 1.0; } }"
  in
  check "different loop bodies, different keys" false (String.equal (key a) (key b));
  check "different loop bounds, different keys" false (String.equal (key a) (key bounds))

(* Cyclic control flow is outside the validator's fragment: such
   functions must fall back to structural keys and never share unless
   byte-identical. *)
let loop_ir body =
  Printf.sprintf "func @f(i64 %%i) {\nentry:\n  br %%loop\nloop:\n%s  br %%loop\n}\n" body

let test_unknown_never_falsely_shares () =
  let a = Ir_parser.parse (loop_ir "") in
  let b = Ir_parser.parse (loop_ir "  %0 = add i64 %i, %i\n") in
  (match Semhash.of_func a with
  | Semhash.Structural _ -> ()
  | Semhash.Semantic _ -> Alcotest.fail "a cyclic function captured semantically");
  check "distinct unknown-fragment bodies get distinct keys" false
    (String.equal
       (Semhash.cache_key ~fingerprint a)
       (Semhash.cache_key ~fingerprint b));
  (* The same unknown body resubmitted is still recognised. *)
  let a' = Ir_parser.parse (loop_ir "") in
  check "identical unknown bodies share" true
    (String.equal
       (Semhash.cache_key ~fingerprint a)
       (Semhash.cache_key ~fingerprint a'))

let test_semantic_and_structural_spaces_disjoint () =
  (* A structural digest can never collide with a semantic one even if
     the hex strings matched: the rendering is prefixed. *)
  check "prefixes differ" false
    (String.equal
       (Semhash.key_to_string (Semhash.Semantic "deadbeef"))
       (Semhash.key_to_string (Semhash.Structural "deadbeef")))

(* --- The LRU cache -------------------------------------------------------- *)

let test_cache_outcomes () =
  let c = Cache.create ~capacity:4 () in
  check "cold lookup misses" true (Cache.find c ~key:"k" ~structural:"s1" = None);
  Cache.add c ~key:"k" ~structural:"s1" 42;
  (match Cache.find c ~key:"k" ~structural:"s1" with
  | Some (42, Cache.Hit_textual) -> ()
  | _ -> Alcotest.fail "same structure should be a textual hit");
  (match Cache.find c ~key:"k" ~structural:"s2" with
  | Some (42, Cache.Hit_semantic) -> ()
  | _ -> Alcotest.fail "different structure should be a semantic hit");
  let n = Cache.counters c in
  check_int "misses" 1 n.Cache.misses;
  check_int "textual" 1 n.Cache.hits_textual;
  check_int "semantic" 1 n.Cache.hits_semantic;
  Alcotest.(check (float 1e-9)) "hit rate" (2.0 /. 3.0) (Cache.hit_rate n)

let test_cache_eviction_bound () =
  let c = Cache.create ~capacity:2 () in
  Cache.add c ~key:"a" ~structural:"s" 1;
  Cache.add c ~key:"b" ~structural:"s" 2;
  (* Touch [a] so [b] is the least recently used. *)
  ignore (Cache.find c ~key:"a" ~structural:"s");
  Cache.add c ~key:"c" ~structural:"s" 3;
  let n = Cache.counters c in
  check_int "bounded" 2 n.Cache.entries;
  check_int "one eviction" 1 n.Cache.evictions;
  check "recently-used survives" true (Cache.mem c "a");
  check "LRU evicted" false (Cache.mem c "b");
  check "new entry present" true (Cache.mem c "c")

let test_cache_first_value_wins () =
  let c = Cache.create ~capacity:4 () in
  Cache.add c ~key:"k" ~structural:"s" 1;
  Cache.add c ~key:"k" ~structural:"s" 2;
  (match Cache.find c ~key:"k" ~structural:"s" with
  | Some (1, _) -> ()
  | _ -> Alcotest.fail "re-insertion must not replace (compiles are deterministic)");
  check_int "no duplicate entry" 1 (Cache.counters c).Cache.entries

(* --- Protocol ------------------------------------------------------------- *)

let feed lines =
  let q = Queue.create () in
  List.iter (fun l -> Queue.add l q) lines;
  fun () -> Queue.take_opt q

let test_protocol_request_roundtrip () =
  let reader = feed [ "compile sn-slp 2"; "kernel f() {"; "}"; "batch 3"; "stats"; "quit" ] in
  (match Protocol.read_request reader with
  | Some (Ok (Protocol.Compile { mode; source })) ->
      check_str "mode" "sn-slp" mode;
      check_str "payload joined" "kernel f() {\n}" source
  | _ -> Alcotest.fail "compile frame");
  (match Protocol.read_request reader with
  | Some (Ok (Protocol.Batch 3)) -> ()
  | _ -> Alcotest.fail "batch frame");
  (match Protocol.read_request reader with
  | Some (Ok Protocol.Stats) -> ()
  | _ -> Alcotest.fail "stats frame");
  (match Protocol.read_request reader with
  | Some (Ok Protocol.Quit) -> ()
  | _ -> Alcotest.fail "quit frame");
  check "eof" true (Protocol.read_request reader = None)

let test_protocol_malformed () =
  let bad lines =
    match Protocol.read_request (feed lines) with
    | Some (Error _) -> true
    | _ -> false
  in
  check "unknown verb" true (bad [ "frobnicate" ]);
  check "bad count" true (bad [ "compile sn-slp x" ]);
  check "eof inside payload" true (bad [ "compile sn-slp 3"; "only one line" ]);
  check "bad batch size" true (bad [ "batch 0" ])

let test_protocol_response_roundtrip () =
  let out = ref [] in
  let writer l = out := l :: !out in
  Protocol.write_response writer
    (Protocol.Compiled { statuses = [ "miss"; "hit-textual" ]; ir = "line1\nline2" });
  Protocol.write_response writer (Protocol.Stats_reply [ ("served", "3") ]);
  Protocol.write_response writer (Protocol.Err "multi\nline message");
  let reader = feed (List.rev !out) in
  (match Protocol.read_response reader with
  | Some (Ok (Protocol.Compiled { statuses; ir })) ->
      check "statuses" true (statuses = [ "miss"; "hit-textual" ]);
      check_str "payload" "line1\nline2" ir
  | _ -> Alcotest.fail "compiled response");
  (match Protocol.read_response reader with
  | Some (Ok (Protocol.Stats_reply [ ("served", "3") ])) -> ()
  | _ -> Alcotest.fail "stats response");
  match Protocol.read_response reader with
  | Some (Ok (Protocol.Err msg)) -> check "newlines collapsed" true (msg = "multi line message")
  | _ -> Alcotest.fail "err response"

(* --- The server ----------------------------------------------------------- *)

(* The lines [server] writes for [lines]. *)
let served_lines server lines =
  let out = ref [] in
  Server.serve server ~reader:(feed lines) ~writer:(fun l -> out := l :: !out);
  List.rev !out

let converse server lines =
  let next = feed (served_lines server lines) in
  let rec go acc =
    match Protocol.read_response next with
    | None -> List.rev acc
    | Some (Ok r) -> go (r :: acc)
    | Some (Error e) -> Alcotest.fail ("malformed response: " ^ e)
  in
  go []

let compile_frame mode src =
  let lines = String.split_on_char '\n' (String.trim src) in
  Printf.sprintf "compile %s %d" mode (List.length lines) :: lines

let statuses_of = function
  | Protocol.Compiled { statuses; _ } -> String.concat "," statuses
  | Protocol.Err e -> "err:" ^ e
  | Protocol.Stats_reply _ -> "stats"

let ir_of = function
  | Protocol.Compiled { ir; _ } -> ir
  | _ -> Alcotest.fail "expected a compiled response"

let test_server_cold_then_warm () =
  let server = Server.create () in
  let lines = compile_frame "sn-slp" reassoc_a @ compile_frame "sn-slp" reassoc_a @ [ "quit" ] in
  match converse server lines with
  | [ first; second ] ->
      check_str "cold misses" "miss" (statuses_of first);
      check_str "warm hits" "hit-textual" (statuses_of second);
      check_str "cache answer byte-identical to fresh compile" (ir_of first) (ir_of second);
      (* And identical to what a fresh server compiles. *)
      let fresh = converse (Server.create ()) (compile_frame "sn-slp" reassoc_a @ [ "quit" ]) in
      check_str "identical across servers" (ir_of first) (ir_of (List.hd fresh))
  | rs -> Alcotest.fail (Printf.sprintf "expected 2 responses, got %d" (List.length rs))

let test_server_semantic_hit_renames () =
  let server = Server.create () in
  let lines = compile_frame "sn-slp" reassoc_a @ compile_frame "sn-slp" reassoc_b @ [ "quit" ] in
  match converse server lines with
  | [ first; second ] ->
      check_str "variant answered semantically" "hit-semantic" (statuses_of second);
      (* The cached entry was compiled as @f; the answer must carry
         the requester's name. *)
      check "renamed to the requester" true
        (String.length (ir_of second) > 7
        && String.sub (ir_of second) 0 7 = "func @g");
      check "origin kept its own name" true (String.sub (ir_of first) 0 7 = "func @f")
  | _ -> Alcotest.fail "expected 2 responses"

let test_server_loop_semantic_hit () =
  (* The PR-8 regression: a reassociated *loop* kernel used to miss to
     the structural fallback; with inductive capture the variant is
     answered from the original's entry as a semantic hit, renamed to
     the requester. *)
  let server = Server.create () in
  let lines =
    compile_frame "sn-slp" loop_reassoc_a @ compile_frame "sn-slp" loop_reassoc_b @ [ "quit" ]
  in
  (match converse server lines with
  | [ first; second ] ->
      check_str "loop original compiles" "miss" (statuses_of first);
      check_str "reassociated loop variant hits semantically" "hit-semantic"
        (statuses_of second);
      check "renamed to the requester" true
        (String.length (ir_of second) > 7 && String.sub (ir_of second) 0 7 = "func @g")
  | rs -> Alcotest.fail (Printf.sprintf "expected 2 responses, got %d" (List.length rs)));
  (* And the same at the cache layer for a loop/straight-line twin
     pair from the registry. *)
  let lk, tw = List.hd Snslp_kernels.Registry.loop_pairs in
  let c = Cache.create ~capacity:8 () in
  let k f = Semhash.cache_key ~fingerprint f in
  let fl = compile_one lk.Snslp_kernels.Registry.source in
  let ft = compile_one tw.Snslp_kernels.Registry.source in
  Cache.add c ~key:(k fl) ~structural:(Semhash.structural_digest fl) 1;
  match Cache.find c ~key:(k ft) ~structural:(Semhash.structural_digest ft) with
  | Some (1, Cache.Hit_semantic) -> ()
  | _ -> Alcotest.fail "loop twin should hit the loop form's entry semantically"

let test_server_distinct_float_constants () =
  (* Six significant digits print both constants as 1, which let the
     second kernel hit the first one's structural entry. *)
  let kernel c =
    Printf.sprintf "kernel f(double a[], double b[], long i) {\n  b[i] = a[i] * %s;\n}" c
  in
  let server = Server.create () in
  let lines =
    compile_frame "o3" (kernel "1.0000001") @ compile_frame "o3" (kernel "1.0000002") @ [ "quit" ]
  in
  match converse server lines with
  | [ first; second ] ->
      check_str "first misses" "miss" (statuses_of first);
      check_str "second misses" "miss" (statuses_of second);
      check "first reply carries 1.0000001" true (contains (ir_of first) "1.0000001");
      check "second reply carries 1.0000002" true (contains (ir_of second) "1.0000002")
  | rs -> Alcotest.fail (Printf.sprintf "expected 2 responses, got %d" (List.length rs))

let test_server_modes_do_not_share () =
  (* The config fingerprint is part of the key: sn-slp's entry must
     not answer an slp request. *)
  let server = Server.create () in
  let lines = compile_frame "sn-slp" reassoc_a @ compile_frame "slp" reassoc_a @ [ "quit" ] in
  match converse server lines with
  | [ _; second ] -> check_str "other mode misses" "miss" (statuses_of second)
  | _ -> Alcotest.fail "expected 2 responses"

let test_server_batch_and_stats () =
  let server = Server.create () in
  let lines =
    [ "batch 2" ]
    @ compile_frame "sn-slp" reassoc_a
    @ compile_frame "sn-slp" reassoc_b
    @ [ "stats"; "quit" ]
  in
  match converse server lines with
  | [ first; second; Protocol.Stats_reply kvs ] ->
      check_str "first of batch compiles" "miss" (statuses_of first);
      (* Same semantic key within one batch: deduplicated, answered
         from the first compile. *)
      check_str "second deduplicates" "miss" (statuses_of second);
      check_str "one compile served both" (ir_of first)
        (String.concat "\n"
           (List.map
              (fun l ->
                if String.length l > 7 && String.sub l 0 7 = "func @g" then
                  "func @f" ^ String.sub l 7 (String.length l - 7)
                else l)
              (String.split_on_char '\n' (ir_of second))));
      check_str "served" "2" (List.assoc "served" kvs)
  | rs -> Alcotest.fail (Printf.sprintf "expected 3 responses, got %d" (List.length rs))

let test_server_packing_modes () =
  (* "+global" is part of the config fingerprint: a greedy-packed
     entry must not answer a global-packed request, and "sn-slp" and
     "sn-slp+greedy" are the same config, so they DO share.  The
     stats reply carries the pack search counters, which only global
     compiles advance.  lbm_stream is one of the kernels where the
     two packings produce different code, so sharing across them
     would be a miscompile, not just a stale counter. *)
  let server = Server.create () in
  let src = (Option.get (Snslp_kernels.Registry.find "lbm_stream")).Snslp_kernels.Registry.source in
  let lines =
    compile_frame "sn-slp" src
    @ compile_frame "sn-slp+global" src
    @ compile_frame "sn-slp+greedy" src
    @ compile_frame "sn-slp+global:8:2048" src
    @ [ "stats"; "quit" ]
  in
  match converse server lines with
  | [ greedy; glob; greedy_alias; glob_beam8; Protocol.Stats_reply kvs ] ->
      check_str "global misses after greedy" "miss" (statuses_of glob);
      check_str "+greedy shares the plain entry" "hit-textual" (statuses_of greedy_alias);
      check_str "a different beam is a different config" "miss" (statuses_of glob_beam8);
      check "global compiled different code" true
        (not (String.equal (ir_of greedy) (ir_of glob)));
      check "pack candidates counted" true
        (int_of_string (List.assoc "pack_candidates" kvs) > 0);
      check "plans replayed" true (int_of_string (List.assoc "pack_plans" kvs) > 0)
  | rs -> Alcotest.fail (Printf.sprintf "expected 5 responses, got %d" (List.length rs))

let test_server_unroll_modes_do_not_share () =
  (* "/ur" is part of the config fingerprint: an auto-unrolled entry
     must never answer a no-unroll request — on a loopy kernel the two
     compile to genuinely different code (straight line vs. a live
     back-edge), so sharing would be a miscompile.  "sn-slp" and
     "sn-slp/urauto" spell the same config and DO share.  The stats
     reply carries the loop counters that only the unrolling compiles
     advance. *)
  let server = Server.create () in
  let src =
    (Option.get (Snslp_kernels.Registry.find "milc_su3_loop"))
      .Snslp_kernels.Registry.source
  in
  let lines =
    compile_frame "sn-slp" src
    @ compile_frame "sn-slp/urnone" src
    @ compile_frame "sn-slp/urauto" src
    @ compile_frame "sn-slp/ur2" src
    @ compile_frame "sn-slp/urnone" src
    @ [ "stats"; "quit" ]
  in
  match converse server lines with
  | [ auto; off; auto_alias; by2; off_again; Protocol.Stats_reply kvs ] ->
      check_str "auto compiles" "miss" (statuses_of auto);
      check_str "no-unroll misses after auto" "miss" (statuses_of off);
      check_str "/urauto shares the plain entry" "hit-textual" (statuses_of auto_alias);
      check_str "a factor is a different config" "miss" (statuses_of by2);
      check_str "no-unroll warm within its own config" "hit-textual"
        (statuses_of off_again);
      check "unrolled code differs from the kept loop" true
        (not (String.equal (ir_of auto) (ir_of off)));
      check "loops found counted" true
        (int_of_string (List.assoc "loops_found" kvs) > 0);
      check "full unrolls counted" true
        (int_of_string (List.assoc "loops_unrolled_full" kvs) > 0)
  | rs -> Alcotest.fail (Printf.sprintf "expected 6 responses, got %d" (List.length rs))

let test_server_targets_do_not_share () =
  (* "@TARGET" is part of the config fingerprint: IR vectorized for
     one register width must never answer a request for another —
     motiv_leaf_x4 compiles to 2-wide bundles at sse and 8-wide at
     avx512, so sharing across targets would hand out wrong-width
     code.  "@TARGET" also selects the target's machine model, so
     "sn-slp@sse" (x86 model) deliberately does not alias bare
     "sn-slp" (paper model).  The stats reply carries the revec
     counters. *)
  let server = Server.create () in
  let src =
    (Option.get (Snslp_kernels.Registry.find "motiv_leaf_x4"))
      .Snslp_kernels.Registry.source
  in
  let lines =
    compile_frame "sn-slp@sse" src
    @ compile_frame "sn-slp@avx512" src
    @ compile_frame "sn-slp@avx512+revec" src
    @ compile_frame "sn-slp@sse" src
    @ compile_frame "sn-slp@neon" src
    @ [ "stats"; "quit" ]
  in
  match converse server lines with
  | [ sse; avx512; revec; sse_again; neon; Protocol.Stats_reply kvs ] ->
      check_str "sse compiles" "miss" (statuses_of sse);
      check_str "avx512 misses after sse" "miss" (statuses_of avx512);
      check_str "revec is a different config" "miss" (statuses_of revec);
      check_str "sse warm within its own config" "hit-textual" (statuses_of sse_again);
      check_str "neon misses" "miss" (statuses_of neon);
      check "widths compile different code" true
        (not (String.equal (ir_of sse) (ir_of avx512)));
      check "revec counters surfaced" true
        (int_of_string (List.assoc "revec_pairs" kvs) >= 0
        && int_of_string (List.assoc "revec_widened" kvs) >= 0)
  | rs -> Alcotest.fail (Printf.sprintf "expected 6 responses, got %d" (List.length rs))

(* The stats reply reads one counters record that every miss's own
   record is added into: each pack_*, revec_* and loops_* value is the
   sum of that field over the misses' [Pipeline.run] records.  The
   batch mixes global packing, a revec target, a partially unrolled
   loop and a global revec compile, so every group of counters moves. *)
let test_server_counters_sum_misses () =
  let open Snslp_vectorizer in
  let module Target = Snslp_costmodel.Target in
  let global =
    Config.Global { beam = Config.default_beam; node_budget = Config.default_node_budget }
  in
  let avx512_revec (c : Config.t) =
    { c with
      Config.target = Target.avx512;
      model = Snslp_costmodel.Model.for_target Target.avx512;
      revec = true }
  in
  let requests =
    [
      ("sn-slp+global", { Config.snslp with Config.packing = global }, "lbm_stream");
      ("sn-slp@avx512+revec", avx512_revec Config.snslp, "motiv_leaf_x4");
      ( "sn-slp/ur2",
        { Config.snslp with Config.unroll = Config.Unroll_by 2 },
        "motiv_leaf_loop" );
      ( "sn-slp+global@avx512+revec",
        avx512_revec { Config.snslp with Config.packing = global },
        "leslie_flux" );
    ]
  in
  let source name =
    (Option.get (Snslp_kernels.Registry.find name)).Snslp_kernels.Registry.source
  in
  let lines =
    [ Printf.sprintf "batch %d" (List.length requests) ]
    @ List.concat_map (fun (mode, _, name) -> compile_frame mode (source name)) requests
    @ [ "stats"; "quit" ]
  in
  match List.rev (converse (Server.create ()) lines) with
  | Protocol.Stats_reply kvs :: replies ->
      List.iter (fun r -> check_str "every request misses" "miss" (statuses_of r)) replies;
      let sum = Stats.create () in
      List.iter
        (fun (_, config, name) ->
          match
            (Snslp_passes.Pipeline.run ~setting:(Some config) (compile_one (source name)))
              .Snslp_passes.Pipeline.vect_report
          with
          | Some rep -> Stats.add ~into:sum rep.Vectorize.stats
          | None -> Alcotest.fail "no vectorizer report")
        requests;
      List.iter
        (fun (field, expected) ->
          check_int field expected (int_of_string (List.assoc field kvs)))
        [
          ("pack_candidates", sum.Stats.pack_candidates);
          ("pack_expansions", sum.Stats.pack_expansions);
          ("pack_pruned", sum.Stats.pack_pruned);
          ("pack_plans", sum.Stats.pack_plans);
          ("revec_pairs", sum.Stats.revec_pairs);
          ("revec_widened", sum.Stats.revec_widened);
          ("loops_found", sum.Stats.loops_found);
          ("loops_counted", sum.Stats.loops_counted);
          ("loops_unrolled_full", sum.Stats.loops_unrolled_full);
          ("loops_unrolled_partial", sum.Stats.loops_unrolled_partial);
          ("loop_blocks_jammed", sum.Stats.loop_blocks_jammed);
        ];
      check "every group of counters moved" true
        (sum.Stats.pack_candidates > 0 && sum.Stats.revec_pairs > 0
        && sum.Stats.loops_unrolled_partial > 0)
  | _ -> Alcotest.fail "expected a stats reply last"

let test_server_bad_target_mode () =
  let server = Server.create () in
  let lines =
    compile_frame "sn-slp@mmx" "kernel f(double a[], long i) { a[i] = a[i]; }"
    @ compile_frame "o3@sse" "kernel f(double a[], long i) { a[i] = a[i]; }"
    @ [ "quit" ]
  in
  match converse server lines with
  | [ Protocol.Err e; Protocol.Err e' ] ->
      check "names the target" true (contains e "target");
      check "o3 takes no target" true (contains e' "target")
  | _ -> Alcotest.fail "expected two error responses"

let test_server_bad_unroll_mode () =
  let server = Server.create () in
  let lines = compile_frame "sn-slp/urx" "kernel f(double a[], long i) { a[i] = a[i]; }" @ [ "quit" ] in
  match converse server lines with
  | [ Protocol.Err e ] -> check "names the policy" true (contains e "unroll")
  | _ -> Alcotest.fail "expected an error response"

let test_server_bad_requests () =
  let server = Server.create () in
  let lines =
    [ "compile nosuchmode 1"; "kernel f() {}" ]
    @ compile_frame "sn-slp" "kernel f(long A[]) { A[0] = ; }"
    @ [ "frobnicate"; "quit" ]
  in
  match converse server lines with
  | [ Protocol.Err _; Protocol.Err _; Protocol.Err _ ] -> ()
  | rs ->
      Alcotest.fail
        (Printf.sprintf "expected 3 errors, got %d responses: %s" (List.length rs)
           (String.concat "; " (List.map statuses_of rs)))

let test_server_eviction_end_to_end () =
  (* Capacity 1: the second distinct kernel evicts the first, so a
     third request for the first source recompiles. *)
  let server = Server.create ~capacity:1 () in
  let other = "kernel h(long A[], long B[], long i) { A[i] = B[i] + 7; }" in
  let lines =
    compile_frame "sn-slp" reassoc_a
    @ compile_frame "sn-slp" other
    @ compile_frame "sn-slp" reassoc_a
    @ [ "quit" ]
  in
  match converse server lines with
  | [ _; _; third ] -> check_str "evicted entry recompiles" "miss" (statuses_of third)
  | _ -> Alcotest.fail "expected 3 responses"

(* A mixed-mode batch adds its misses to the cache in request order,
   whatever their modes: at capacity 3, two later misses evict the
   batch's first two entries and leave its last one, lbm_stream. *)
let test_server_mixed_batch_eviction_order () =
  let server = Server.create ~capacity:3 () in
  let frame mode name =
    compile_frame mode
      (Option.get (Snslp_kernels.Registry.find name)).Snslp_kernels.Registry.source
  in
  let lines =
    [ "batch 3" ]
    @ frame "sn-slp" "motiv_leaf"
    @ frame "o3" "milc_su3"
    @ frame "sn-slp" "lbm_stream"
    @ frame "sn-slp" "sphinx_dist"
    @ frame "sn-slp" "hmmer_path"
    @ frame "sn-slp" "lbm_stream"
    @ [ "quit" ]
  in
  match List.map statuses_of (converse server lines) with
  | [ "miss"; "miss"; "miss"; "miss"; "miss"; last ] ->
      check_str "the batch's last entry outlives its first two" "hit-textual" last
  | rs -> Alcotest.fail ("unexpected statuses: " ^ String.concat "; " rs)

(* --- Level 2: the parsed kernel's digest ----------------------------------- *)

let corpus () =
  List.map (fun (k : Snslp_kernels.Registry.t) -> k.Snslp_kernels.Registry.source)
    Snslp_kernels.Registry.all
  @ List.map Snslp_kernels.Fullbench.source Snslp_kernels.Fullbench.all

(* The structural index keys on the signature read off the parse, the
   cache key on the one read off the lowered function: they must agree. *)
let test_signature_from_ast () =
  List.iter
    (fun src ->
      List.iter2
        (fun (k : Snslp_frontend.Frontend.parsed) f ->
          check_str k.Snslp_frontend.Frontend.ast.Snslp_frontend.Ast.kname (Semhash.signature f)
            k.Snslp_frontend.Frontend.signature)
        (Snslp_frontend.Frontend.parse_digested src)
        (Snslp_frontend.Frontend.compile src))
    (corpus ())

(* [src] with its one kernel renamed to [name], in place: every other
   byte of the source stays. *)
let rename_source src name =
  let old =
    match Snslp_frontend.Frontend.parse src with
    | [ k ] -> k.Snslp_frontend.Ast.kname
    | _ -> Alcotest.fail "expected one kernel"
  in
  let header = "kernel " ^ old ^ "(" in
  let n = String.length header in
  let rec find i =
    if i + n > String.length src then Alcotest.failf "no %S in the source" header
    else if String.equal (String.sub src i n) header then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub src 0 i ^ "kernel " ^ name ^ "("
  ^ String.sub src (i + n) (String.length src - i - n)

(* What a fresh compile of [src] prints, without the final newline, as
   the server answers it. *)
let fresh_print ~setting src =
  let r = Snslp_passes.Pipeline.run ~setting (compile_one src) in
  let ir = Printer.func_to_string r.Snslp_passes.Pipeline.func in
  String.sub ir 0 (String.length ir - 1)

(* A renamed resubmission is answered by splicing the new name into the
   cached printing; that must give the bytes of printing the renamed
   compile. *)
let test_spliced_rename_is_a_fresh_print () =
  List.iter
    (fun (k : Snslp_kernels.Registry.t) ->
      (* A server of its own: some registry kernels share semantics. *)
      let server = Server.create () in
      let src = k.Snslp_kernels.Registry.source in
      let renamed = rename_source src (k.Snslp_kernels.Registry.name ^ "_renamed_kernel") in
      ignore (Server.handle_batch server [ Ok ("sn-slp", src) ]);
      match Server.handle_batch server [ Ok ("sn-slp", renamed) ] with
      | [ Protocol.Compiled { statuses = [ "hit-textual" ]; ir } ] ->
          check_str k.Snslp_kernels.Registry.name
            (fresh_print ~setting:(Some Snslp_vectorizer.Config.snslp) renamed)
            ir
      | [ r ] ->
          Alcotest.failf "%s: renamed answered %s" k.Snslp_kernels.Registry.name (statuses_of r)
      | _ -> Alcotest.fail "expected one response")
    Snslp_kernels.Registry.all

(* A renamed resubmission of a 1,000-statement kernel is parsed and
   digested, not lowered: it answers textually with the bytes of a
   fresh compile, and allocates less than half of what
   [Frontend.compile] of the same source does. *)
let test_renamed_large_kernel_skips_lowering () =
  let source name =
    "kernel " ^ name ^ "(double a[], double b[], double c[], long i) {\n"
    ^ String.concat ""
        (List.init 1000 (fun k -> Printf.sprintf "  a[i+%d] = b[i+%d] * 1.5 + c[i+%d];\n" k k k))
    ^ "}\n"
  in
  let server = Server.create () in
  (match Server.handle_batch server [ Ok ("o3", source "big") ] with
  | [ r ] -> check_str "the first compile misses" "miss" (statuses_of r)
  | _ -> Alcotest.fail "expected one response");
  let renamed = source "big_renamed" in
  let w0 = Gc.minor_words () in
  let reply = Server.handle_batch server [ Ok ("o3", renamed) ] in
  let hit_words = Gc.minor_words () -. w0 in
  let w0 = Gc.minor_words () in
  ignore (Snslp_frontend.Frontend.compile renamed);
  let compile_words = Gc.minor_words () -. w0 in
  (match reply with
  | [ Protocol.Compiled { statuses = [ "hit-textual" ]; ir } ] ->
      check_str "byte-identical to a fresh compile" (fresh_print ~setting:None renamed) ir
  | [ r ] -> Alcotest.failf "renamed answered %s" (statuses_of r)
  | _ -> Alcotest.fail "expected one response");
  if hit_words >= compile_words /. 2. then
    Alcotest.failf "the renamed hit allocated %.0f words, Frontend.compile %.0f" hit_words
      compile_words

(* The documented status change: a [let] temporary changes the parse but
   not the IR, so the variant is found through the semantic key and
   reports [hit-semantic]; its bytes are those of its own fresh
   compile. *)
let test_let_temporary_hits_semantically () =
  let plain = "kernel f(double A[], double B[], long i) { A[i] = B[i] * 2.0 + 1.0; }" in
  let with_let =
    "kernel f(double A[], double B[], long i) { double t = B[i] * 2.0; A[i] = t + 1.0; }"
  in
  let lines = compile_frame "sn-slp" plain @ compile_frame "sn-slp" with_let @ [ "quit" ] in
  match converse (Server.create ()) lines with
  | [ first; second ] ->
      check_str "the plain source misses" "miss" (statuses_of first);
      check_str "the let variant hits semantically" "hit-semantic" (statuses_of second);
      check_str "with the bytes of its own compile"
        (fresh_print ~setting:(Some Snslp_vectorizer.Config.snslp) with_let)
        (ir_of second)
  | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs)

(* Every kernel of a request lowers before its first cache lookup: a
   request whose second kernel fails to type-check is an [err] even when
   its first kernel is a level-2 hit, and no counter moves. *)
let test_bad_request_touches_no_counter () =
  let server = Server.create () in
  let good = "kernel f(long A[], long B[], long i) { A[i] = B[i] + 1; }" in
  ignore (Server.handle_batch server [ Ok ("sn-slp", good) ]);
  let before = Cache.counters (Server.cache server) in
  let bad = "kernel g(long A[], long B[], long i) { A[i] = B[i] + 1; }\n\
             kernel h(double A[], long i) { long k = i; long k = i; A[k] = 1.0; }" in
  (match Server.handle_batch server [ Ok ("sn-slp", bad) ] with
  | [ Protocol.Err e ] -> check "a type error" true (contains e "type error")
  | rs -> Alcotest.failf "expected one err, got %s" (String.concat "; " (List.map statuses_of rs)));
  check "counters unchanged" true (Cache.counters (Server.cache server) = before)

(* --- Compiles that raise ---------------------------------------------------- *)

(* No known valid kernel makes a compile raise, so fault isolation is
   tested against an injected failure: a server whose compile raises,
   for two kernels told apart by their index argument (a rename keeps
   it), the exceptions a broken vectorizer raises. *)
let raising_kernels =
  [
    ("Scheduling_failure", "kernel r(double a[], long sched) { a[sched] = a[sched+1]; }");
    ("Invalid_ir", "kernel r(double a[], long invalid) { a[invalid] = 1.0; }");
  ]

let injected_compile setting (f : Defs.func) =
  match Array.map (fun (a : Defs.arg) -> a.Defs.arg_name) f.Defs.fargs with
  | [| _; "sched" |] -> raise (Snslp_vectorizer.Codegen.Scheduling_failure "injected")
  | [| _; "invalid" |] -> raise (Verifier.Invalid_ir "injected")
  | _ -> Snslp_passes.Pipeline.run ~setting f

let raising_server () = Server.create ~compile:injected_compile ()

let valid_kernel = "kernel f(long A[], long B[], long i) { A[i] = B[i] + 1; }"

(* A compile that raises answers [err] naming the exception, is neither
   cached nor remembered by either index, and leaves its batch-mates
   compiling. *)
let test_server_compile_failure_isolated () =
  let server = raising_server () in
  let failing = List.map (fun (_, src) -> Ok ("sn-slp", src)) raising_kernels in
  let replies = Server.handle_batch server (failing @ [ Ok ("sn-slp", valid_kernel) ]) in
  (match replies with
  | [ Protocol.Err e1; Protocol.Err e2; ok ] ->
      check "the first err names its exception" true (contains e1 "Scheduling_failure");
      check "the second err names its exception" true (contains e2 "Invalid_ir");
      check_str "the batch-mate compiles" "miss" (statuses_of ok);
      check_str "with the bytes of a fresh compile"
        (fresh_print ~setting:(Some Snslp_vectorizer.Config.snslp) valid_kernel)
        (ir_of ok)
  | rs -> Alcotest.failf "unexpected replies: %s" (String.concat "; " (List.map statuses_of rs)));
  check_int "only the batch-mate is cached" 1 (Cache.counters (Server.cache server)).Cache.entries;
  (* Resubmitted byte for byte, and renamed: neither index answers, the
     compile runs again and fails again. *)
  let again = List.map (fun (_, src) -> Ok ("sn-slp", src)) raising_kernels in
  let renamed = List.map (fun (_, src) -> Ok ("sn-slp", rename_source src "r2")) raising_kernels in
  List.iter
    (function
      | Protocol.Err e -> check "fails again" true (contains e "failed")
      | r -> Alcotest.failf "a failed kernel answered %s" (statuses_of r))
    (Server.handle_batch server (again @ renamed));
  let c = Cache.counters (Server.cache server) in
  check_int "every failed lookup is a miss" 7 c.Cache.misses;
  check_int "still one entry" 1 c.Cache.entries

(* --- Latency window ---------------------------------------------------------- *)

(* The stats percentiles cover a fixed window of the latest requests,
   so a long-running daemon neither grows nor re-sorts an unbounded
   history; the mean still covers everything served.  A batch records
   its whole wall time once per frame, so 5904 frames in one batch,
   then 4096 lone frames, leave a window of only the fast lone ones. *)
let test_server_latency_window () =
  let server = Server.create () in
  let bad n = List.concat (List.init n (fun _ -> [ "compile nosuchmode 1"; "x" ])) in
  let rs = converse server ([ "batch 5904" ] @ bad 5904 @ bad 4096 @ [ "stats"; "quit" ]) in
  let kvs =
    match List.rev rs with
    | Protocol.Stats_reply kvs :: _ -> kvs
    | _ -> Alcotest.fail "expected a stats reply last"
  in
  let ms k = float_of_string (List.assoc k kvs) in
  check_str "every request counted" "10000" (List.assoc "served" kvs);
  let window = List.sort Float.compare (Server.latencies_s server) in
  check_int "window holds the latest 4096" 4096 (List.length window);
  check_str "p50 is the window's median"
    (Printf.sprintf "%.3f" (List.nth window 2047 *. 1e3))
    (List.assoc "p50_ms" kvs);
  check "the mean still counts the batch" true (ms "mean_ms" > ms "p99_ms")

(* EOF inside a batch answers the frames that arrived, then one err
   naming how many never came; the header's count allocates nothing.
   When every missing frame became its own error slot, a 16-byte
   [batch 100000000] followed by EOF took the daemon past a gigabyte
   with no reply. *)
let test_server_truncated_batch () =
  let server = Server.create () in
  let src = "kernel f(long A[], long B[], long i) { A[i] = B[i] + 1; }" in
  let rs = converse server ("batch 100000000" :: compile_frame "sn-slp" src) in
  check_int "the frame that arrived, then one err" 2 (List.length rs);
  check_str "the frame is compiled" "miss" (statuses_of (List.hd rs));
  (match List.nth rs 1 with
  | Protocol.Err e ->
      check "the err names the missing count" true (contains e "99999999 of 100000000")
  | r -> Alcotest.fail ("expected an err, got " ^ statuses_of r));
  check_int "latency recorded for the answered frame only" 1
    (List.length (Server.latencies_s server))

(* --- The daemon over pipes and a socket -------------------------------------- *)

(* These drive the built snslpd executable rather than [Server.serve]:
   they pin the daemon's own I/O.  A reply must leave without waiting
   for end of input or for the next request, frames pipelined in one
   write must be answered in order, and quit must exit cleanly. *)

let snslpd = Filename.concat (Filename.dirname Sys.executable_name) "../bin/snslpd.exe"

let send fd lines =
  let s = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  ignore (Unix.write_substring fd s 0 (String.length s))

(* Lines off [fd]; a line that has not arrived by [!deadline] fails the
   test instead of hanging it. *)
let line_reader fd deadline =
  let pending = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let rec next () =
    let s = Buffer.contents pending in
    match String.index_opt s '\n' with
    | Some k ->
        Buffer.clear pending;
        Buffer.add_string pending (String.sub s (k + 1) (String.length s - k - 1));
        Some (String.sub s 0 k)
    | None -> (
        let left = !deadline -. Unix.gettimeofday () in
        match if left > 0. then Unix.select [ fd ] [] [] left else ([], [], []) with
        | [], _, _ -> Alcotest.fail "no reply from snslpd within 5 s"
        | _ -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> None
            | n ->
                Buffer.add_subbytes pending chunk 0 n;
                next ()))
  in
  next

(* The raw lines of the next [n] replies, each given 5 s. *)
let rec read_replies read deadline n =
  if n = 0 then []
  else begin
    deadline := Unix.gettimeofday () +. 5.0;
    let lines = ref [] in
    let reader () =
      let l = read () in
      Option.iter (fun l -> lines := l :: !lines) l;
      l
    in
    match Protocol.read_response reader with
    | Some (Ok _) ->
        let reply = List.rev !lines in
        reply @ read_replies read deadline (n - 1)
    | Some (Error e) -> Alcotest.fail ("malformed reply: " ^ e)
    | None -> Alcotest.fail "snslpd closed its output"
  end

(* Run [f wait_exit] against a spawned snslpd with its stderr
   discarded; the daemon is killed afterwards unless [wait_exit]
   reaped it. *)
let with_daemon args ~stdin ~stdout f =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let pid = Unix.create_process snslpd (Array.of_list (snslpd :: args)) stdin stdout null in
  Unix.close null;
  let reaped = ref false in
  let rec wait_exit deadline =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        wait_exit deadline
    | 0, _ -> Alcotest.fail "snslpd did not exit within 5 s"
    | _, status ->
        reaped := true;
        status
  in
  Fun.protect
    ~finally:(fun () ->
      if not !reaped then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end)
    (fun () -> f (fun () -> wait_exit (Unix.gettimeofday () +. 5.0)))

(* snslpc is driven as a built executable too: a KernelC error is the
   user's, reported with its position and exit status 1, as a bad .ir
   input is, not as an internal error. *)
let snslpc = Filename.concat (Filename.dirname Sys.executable_name) "../bin/snslpc.exe"

(* Exit status and stderr of snslpc on a file holding [source]. *)
let run_snslpc ~ext source =
  let file = Filename.temp_file "snslpc" ext and err_file = Filename.temp_file "snslpc" ".err" in
  Out_channel.with_open_text file (fun oc -> output_string oc source);
  let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let null_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let err = Unix.openfile err_file [ Unix.O_WRONLY; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o600 in
  let pid = Unix.create_process snslpc [| snslpc; file |] null_in null_out err in
  List.iter Unix.close [ null_in; null_out; err ];
  let _, status = Unix.waitpid [] pid in
  let message = In_channel.with_open_text err_file In_channel.input_all in
  Sys.remove file;
  Sys.remove err_file;
  (status, message)

let test_snslpc_user_errors () =
  let expect what ~ext source ~prefix =
    match run_snslpc ~ext source with
    | Unix.WEXITED 1, message when String.starts_with ~prefix message -> ()
    | Unix.WEXITED n, message -> Alcotest.failf "%s: exit %d, stderr %S" what n message
    | (Unix.WSIGNALED _ | Unix.WSTOPPED _), _ -> Alcotest.failf "%s: snslpc was killed" what
  in
  expect "KernelC type error" ~ext:".kc" ~prefix:"type error at"
    "kernel f(double a[], long i) {\n  long k = i;\n  long k = i;\n  a[k] = 1.0;\n}\n";
  expect "KernelC parse error" ~ext:".kc" ~prefix:"parse error at" "kernel f(\n";
  expect "IR parse error" ~ext:".ir" ~prefix:"IR parse error at line" "func @f() {\nentry:\n  %0 = bogus\n}\n"

let test_daemon_stdio () =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  with_daemon [] ~stdin:in_r ~stdout:out_w (fun wait_exit ->
      Unix.close in_r;
      Unix.close out_w;
      let deadline = ref 0. in
      let read = line_reader out_r deadline in
      let first = compile_frame "sn-slp" reassoc_a in
      let pipelined =
        compile_frame "sn-slp" reassoc_a @ compile_frame "sn-slp" reassoc_b
        @ compile_frame "o3" reassoc_b
      in
      (* Input stays open, so only the daemon's own flush can deliver
         this reply. *)
      send in_w first;
      let replies = read_replies read deadline 1 in
      send in_w pipelined;
      let replies = replies @ read_replies read deadline 3 in
      Alcotest.(check (list string))
        "replies byte for byte as Server.serve"
        (served_lines (Server.create ()) (first @ pipelined))
        replies;
      send in_w [ "quit" ];
      check "quit exits 0" true (wait_exit () = Unix.WEXITED 0);
      Unix.close in_w;
      Unix.close out_r)

let test_daemon_socket () =
  let path = Printf.sprintf "snslpd-test-%d.sock" (Unix.getpid ()) in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close null;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      with_daemon [ "--socket"; path ] ~stdin:null ~stdout:null (fun _ ->
          let deadline = ref (Unix.gettimeofday () +. 5.0) in
          let rec connect () =
            let sock = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            try
              Unix.connect sock (Unix.ADDR_UNIX path);
              sock
            with Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
              when Unix.gettimeofday () < !deadline ->
              Unix.close sock;
              Unix.sleepf 0.01;
              connect ()
          in
          (* A client that hangs up before its reply must not take the
             daemon down, nor leave bytes for the next client. *)
          let other = "kernel h(long A[], long B[], long i) { A[i] = B[i] + 7; }" in
          let gone = connect () in
          send gone (compile_frame "sn-slp" other);
          Unix.close gone;
          let sock = connect () in
          let frame = compile_frame "sn-slp" reassoc_a in
          send sock frame;
          Alcotest.(check (list string))
            "reply byte for byte as Server.serve"
            (served_lines (Server.create ()) frame)
            (read_replies (line_reader sock deadline) deadline 1);
          send sock [ "quit" ];
          Unix.close sock))

(* The conversation goes on after a compile raises: both raising
   kernels answer [err], a valid request after them compiles, and the
   counters show three misses and one entry. *)
let test_serve_survives_raising_compiles () =
  let lines =
    List.concat_map (fun (_, src) -> compile_frame "sn-slp" src) raising_kernels
    @ compile_frame "sn-slp" valid_kernel @ [ "stats"; "quit" ]
  in
  match converse (raising_server ()) lines with
  | [ Protocol.Err e1; Protocol.Err e2; ok; Protocol.Stats_reply kvs ] ->
      List.iter2
        (fun (exn, _) e -> check ("err names " ^ exn) true (contains e exn))
        raising_kernels [ e1; e2 ];
      check_str "the valid request compiles" "miss" (statuses_of ok);
      check_str "served" "3" (List.assoc "served" kvs);
      check_str "misses" "3" (List.assoc "misses" kvs);
      check_str "entries" "1" (List.assoc "entries" kvs)
  | rs -> Alcotest.failf "unexpected replies: %s" (String.concat "; " (List.map statuses_of rs))

(* The daemon keeps serving after requests fail: a type error and an
   unknown mode answer [err], a valid request after them compiles, and
   the counters show one miss and one entry. *)
let failing_requests =
  [
    ( "type error",
      compile_frame "sn-slp"
        "kernel h(double A[], long i) { long k = i; long k = i; A[k] = 1.0; }" );
    ("unknown mode", compile_frame "nosuchmode" valid_kernel);
  ]

let test_daemon_survives_failing_requests () =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  with_daemon [] ~stdin:in_r ~stdout:out_w (fun wait_exit ->
      Unix.close in_r;
      Unix.close out_w;
      let deadline = ref 0. in
      let read = line_reader out_r deadline in
      List.iter (fun (_, frame) -> send in_w frame) failing_requests;
      send in_w (compile_frame "sn-slp" valid_kernel);
      send in_w [ "stats" ];
      let replies = read_replies read deadline 4 in
      let next = feed replies in
      let read_one () =
        match Protocol.read_response next with
        | Some (Ok r) -> r
        | _ -> Alcotest.fail "malformed reply"
      in
      List.iter
        (fun (what, _) ->
          match read_one () with
          | Protocol.Err e -> check ("err names the " ^ what) true (contains e what)
          | r -> Alcotest.failf "expected an err naming the %s, got %s" what (statuses_of r))
        failing_requests;
      check_str "the valid request compiles" "miss" (statuses_of (read_one ()));
      (match read_one () with
      | Protocol.Stats_reply kvs ->
          check_str "served" "3" (List.assoc "served" kvs);
          check_str "misses" "1" (List.assoc "misses" kvs);
          check_str "entries" "1" (List.assoc "entries" kvs)
      | r -> Alcotest.failf "expected stats, got %s" (statuses_of r));
      send in_w [ "quit" ];
      check "quit exits 0" true (wait_exit () = Unix.WEXITED 0);
      Unix.close in_w;
      Unix.close out_r)

(* --- Golden IR bytes --------------------------------------------------------- *)

(* One MD5 over the printed frontend output of every registry kernel,
   its structural digest, and its compiles under the benchmark's modes.
   Any change to a printed byte or to a structural cache key fails
   here; the value was captured before the printer moved to a single
   buffer. *)
let golden_ir_md5 = "36859061c79c7b2df389f9a1d685b023"

let with_global (c : Snslp_vectorizer.Config.t) =
  let open Snslp_vectorizer in
  { c with
    Config.packing =
      Config.Global { beam = Config.default_beam; node_budget = Config.default_node_budget } }

let avx512_revec =
  let open Snslp_vectorizer in
  { Config.snslp with
    Config.target = Snslp_costmodel.Target.avx512;
    model = Snslp_costmodel.Model.for_target Snslp_costmodel.Target.avx512;
    revec = true }

let test_golden_ir_bytes () =
  let open Snslp_vectorizer in
  let settings =
    [ None; Some Config.snslp; Some (with_global Config.snslp); Some avx512_revec ]
  in
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun (k : Snslp_kernels.Registry.t) ->
      let f = compile_one k.Snslp_kernels.Registry.source in
      Buffer.add_string buf (Printer.func_to_string f);
      Buffer.add_string buf (Semhash.structural_digest f);
      List.iter
        (fun setting ->
          let r = Snslp_passes.Pipeline.run ~setting (Func.clone f) in
          Buffer.add_string buf (Printer.func_to_string r.Snslp_passes.Pipeline.func))
        settings)
    Snslp_kernels.Registry.all;
  check_str "printed IR and structural digests" golden_ir_md5
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Wider than the test above: the registry and the whole-program
   Fullbench units under seven settings, each compile's printed IR
   followed by its counters line ([Stats.pp]), so a change that keeps
   the IR but moves a counter shows here too.  Last re-pinned when
   {!Snslp_analysis.Deps.depends} became a walk, the reachability
   windows and their [reach=] counters went, and the [admit=] counter
   began to count the users and accesses admissions examine: against
   the previous buffer every counters line lost its [reach=] field and
   223 of the 270 moved their [admit=] field; nothing else moved. *)
let golden_wide_md5 = "4985e1614db435667fabf51219e48d20"

let test_golden_wide () =
  let open Snslp_vectorizer in
  let settings =
    [ None; Some Config.vanilla; Some Config.lslp; Some Config.snslp;
      Some (with_global Config.snslp); Some avx512_revec; Some (with_global avx512_revec) ]
  in
  let sources =
    List.map (fun (k : Snslp_kernels.Registry.t) -> k.Snslp_kernels.Registry.source)
      Snslp_kernels.Registry.all
    @ List.map Snslp_kernels.Fullbench.source Snslp_kernels.Fullbench.all
  in
  let buf = Buffer.create (1 lsl 22) in
  List.iter
    (fun src ->
      let f = compile_one src in
      List.iter
        (fun setting ->
          let r = Snslp_passes.Pipeline.run ~setting (Func.clone f) in
          Buffer.add_string buf (Printer.func_to_string r.Snslp_passes.Pipeline.func);
          match r.Snslp_passes.Pipeline.vect_report with
          | Some rep -> Buffer.add_string buf (Fmt.str "; stats: %a\n" Stats.pp rep.Vectorize.stats)
          | None -> ())
        settings)
    sources;
  check_str "printed IR and counters, registry + Fullbench x 7 settings" golden_wide_md5
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* One line per registry kernel and Fullbench unit: its semantic cache
   key under sn-slp and the validator's end-to-end verdict on its
   sn-slp compile.  The keys are digests of [Normal] forms, so a change
   to the validator's arithmetic, its canonical ordering or its loop
   summaries shows here even when every verdict stays [Valid].  The
   value was captured before [Normal] moved to the shared [Arith]
   semantics. *)
let golden_semantic_md5 = "0612ba30e0ce43b5cd692b52d5424bfb"

let test_golden_semantic_keys () =
  let open Snslp_vectorizer in
  let sources =
    List.map (fun (k : Snslp_kernels.Registry.t) -> k.Snslp_kernels.Registry.source)
      Snslp_kernels.Registry.all
    @ List.map Snslp_kernels.Fullbench.source Snslp_kernels.Fullbench.all
  in
  let fingerprint = Config.fingerprint Config.snslp in
  let buf = Buffer.create (1 lsl 16) in
  List.iter
    (fun src ->
      let f = compile_one src in
      let r = Snslp_passes.Pipeline.run ~setting:(Some Config.snslp) ~validate:true f in
      let verdict =
        match r.Snslp_passes.Pipeline.validation with
        | Some v -> Snslp_lint.Validate.verdict_to_string v.Snslp_passes.Pipeline.end_verdict
        | None -> "none"
      in
      Printf.bprintf buf "%s %s %s\n" f.Defs.fname (Semhash.cache_key ~fingerprint f) verdict)
    sources;
  check_str "semantic keys and end-to-end verdicts, registry + Fullbench" golden_semantic_md5
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let suite =
  [
    ( "service",
      [
        Alcotest.test_case "semantic key: reassociation" `Quick test_semantic_key_reassociation;
        Alcotest.test_case "semantic key: (a*b)/b = a" `Quick test_semantic_key_cancellation;
        Alcotest.test_case "different semantics differ" `Quick test_different_semantics_different_keys;
        Alcotest.test_case "signature in key" `Quick test_signature_part_of_key;
        Alcotest.test_case "name not in key" `Quick test_name_irrelevant_to_key;
        Alcotest.test_case "semantic key: loop reassociation" `Quick
          test_semantic_key_loop_reassociation;
        Alcotest.test_case "semantic key: registry loop twins" `Quick
          test_semantic_key_registry_loop_twins;
        Alcotest.test_case "symbolic loops never falsely share" `Quick
          test_symbolic_loops_never_falsely_share;
        Alcotest.test_case "unknown fragment never shares" `Quick test_unknown_never_falsely_shares;
        Alcotest.test_case "key spaces disjoint" `Quick test_semantic_and_structural_spaces_disjoint;
        Alcotest.test_case "cache outcomes and counters" `Quick test_cache_outcomes;
        Alcotest.test_case "cache eviction bound (LRU)" `Quick test_cache_eviction_bound;
        Alcotest.test_case "cache first value wins" `Quick test_cache_first_value_wins;
        Alcotest.test_case "protocol request roundtrip" `Quick test_protocol_request_roundtrip;
        Alcotest.test_case "protocol malformed frames" `Quick test_protocol_malformed;
        Alcotest.test_case "protocol response roundtrip" `Quick test_protocol_response_roundtrip;
        Alcotest.test_case "server cold/warm bit-identical" `Quick test_server_cold_then_warm;
        Alcotest.test_case "server semantic hit renames" `Quick test_server_semantic_hit_renames;
        Alcotest.test_case "server loop semantic hit" `Quick test_server_loop_semantic_hit;
        Alcotest.test_case "server distinct float constants" `Quick
          test_server_distinct_float_constants;
        Alcotest.test_case "server modes do not share" `Quick test_server_modes_do_not_share;
        Alcotest.test_case "server batch + dedup + stats" `Quick test_server_batch_and_stats;
        Alcotest.test_case "server packing modes and counters" `Quick
          test_server_packing_modes;
        Alcotest.test_case "server unroll modes do not share" `Quick
          test_server_unroll_modes_do_not_share;
        Alcotest.test_case "server targets do not share" `Quick
          test_server_targets_do_not_share;
        Alcotest.test_case "server counters sum the misses' records" `Quick
          test_server_counters_sum_misses;
        Alcotest.test_case "server bad target mode" `Quick test_server_bad_target_mode;
        Alcotest.test_case "server bad unroll mode" `Quick test_server_bad_unroll_mode;
        Alcotest.test_case "server bad requests" `Quick test_server_bad_requests;
        Alcotest.test_case "server eviction end to end" `Quick test_server_eviction_end_to_end;
        Alcotest.test_case "server mixed batch evicts in request order" `Quick
          test_server_mixed_batch_eviction_order;
        Alcotest.test_case "server latency window" `Quick test_server_latency_window;
        Alcotest.test_case "server truncated batch" `Quick test_server_truncated_batch;
        Alcotest.test_case "level 2: signature read off the parse" `Quick
          test_signature_from_ast;
        Alcotest.test_case "level 2: spliced rename is a fresh print" `Quick
          test_spliced_rename_is_a_fresh_print;
        Alcotest.test_case "level 2: renamed large kernel skips lowering" `Quick
          test_renamed_large_kernel_skips_lowering;
        Alcotest.test_case "level 2: let temporary hits semantically" `Quick
          test_let_temporary_hits_semantically;
        Alcotest.test_case "level 2: a bad request touches no counter" `Quick
          test_bad_request_touches_no_counter;
        Alcotest.test_case "server isolates a compile that raises" `Quick
          test_server_compile_failure_isolated;
        Alcotest.test_case "serve survives raising compiles" `Quick
          test_serve_survives_raising_compiles;
        Alcotest.test_case "daemon survives failing requests" `Quick
          test_daemon_survives_failing_requests;
        Alcotest.test_case "daemon over pipes" `Quick test_daemon_stdio;
        Alcotest.test_case "snslpc reports user errors" `Quick test_snslpc_user_errors;
        Alcotest.test_case "daemon over a socket" `Quick test_daemon_socket;
        Alcotest.test_case "golden IR bytes" `Quick test_golden_ir_bytes;
        Alcotest.test_case "golden IR and counters, wide" `Quick test_golden_wide;
        Alcotest.test_case "golden semantic keys and verdicts" `Quick test_golden_semantic_keys;
      ] );
  ]
