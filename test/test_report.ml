(* Tests for the reporting helpers: statistics, table rendering and
   the bench report envelope. *)

open Snslp_report

let check = Alcotest.(check bool)
let check_f = Alcotest.(check (float 1e-9))
let check_str = Alcotest.(check string)

let test_mean_stddev () =
  check_f "mean" 2.0 (Stat.mean [ 1.0; 2.0; 3.0 ]);
  check_f "stddev" 1.0 (Stat.stddev [ 1.0; 2.0; 3.0 ]);
  check_f "single sample stddev" 0.0 (Stat.stddev [ 5.0 ]);
  check "empty mean is nan" true (Float.is_nan (Stat.mean []));
  check_f "geomean" 2.0 (Stat.geomean [ 1.0; 4.0 ]);
  check_f "geomean of equal" 3.0 (Stat.geomean [ 3.0; 3.0; 3.0 ])

let test_sample_protocol () =
  let calls = ref 0 in
  let samples =
    Stat.sample ~runs:5 ~warmup:2 (fun () ->
        incr calls;
        float_of_int !calls)
  in
  Alcotest.(check int) "warmup + runs calls" 7 !calls;
  (* The warm-up results are dropped: samples are runs 3..7. *)
  check "keeps the last runs" true (samples = [ 3.0; 4.0; 5.0; 6.0; 7.0 ])

let test_table_render () =
  let s = Table.render ~headers:[ "a"; "bb" ] [ [ "xx"; "1" ]; [ "y"; "22" ] ] in
  let lines = String.split_on_char '\n' s |> List.filter (( <> ) "") in
  Alcotest.(check int) "header + rule + rows" 4 (List.length lines);
  (* All lines align to the same width. *)
  (match lines with
  | first :: rest ->
      List.iter
        (fun l -> Alcotest.(check int) "aligned" (String.length first) (String.length l))
        rest
  | [] -> Alcotest.fail "no output");
  (* A multi-byte cell takes one column per character: the rule under
     "sd" is as wide as "±1.5". *)
  let s = Table.render ~headers:[ "k"; "sd" ] [ [ "x"; "±1.5" ] ] in
  check "rule by display width" true
    (List.nth (String.split_on_char '\n' s) 1 = "-  ----")

let test_bar () =
  check_str "full bar" "####" (Table.bar ~width:4 ~max_value:1.0 1.0);
  check_str "half bar" "##" (Table.bar ~width:4 ~max_value:1.0 0.5);
  check_str "clamped" "####" (Table.bar ~width:4 ~max_value:1.0 9.0);
  check_str "degenerate max" "" (Table.bar ~width:4 ~max_value:0.0 1.0)

(* A report with one table, a non-finite cell and a non-finite value. *)
let sample criteria =
  {
    Report.experiment = "demo";
    title = "Demo";
    config = [ ("rounds", Report.Int 3) ];
    tables =
      [
        {
          Report.caption = "kernels";
          columns = [ "kernel"; "speedup"; "cycles" ];
          rows =
            [
              [ Report.Text "k1"; Report.Num (1.5, Report.Times 2); Report.Num (nan, Report.Fixed 1) ];
            ];
        };
      ];
    values = [ ("total", Report.Num (infinity, Report.Fixed 0)) ];
    criteria;
    notes = [];
  }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_envelope_json () =
  let json = Json.to_string (Report.to_json (sample [])) in
  check "schema" true (contains json {|"schema": "snslp-bench/2"|});
  check "numbers stay numbers, nan is null" true (contains json {|["k1", 1.5, null]|});
  check "infinite value is null" true (contains json {|"total": null|});
  check "config is typed" true (contains json {|"rounds": 3|})

let test_envelope_text () =
  let text =
    Report.to_text (sample [ Report.at_most "ratio" (Report.Num (0.2, Report.Fixed 3)) 0.25 ])
  in
  check "formatted cell" true (contains text "1.50x");
  check "missing number shown as nan" true (contains text "nan");
  check "config line" true (contains text "config: rounds=3");
  check "verdict line" true (contains text "ratio: 0.200 (<= 0.25): PASS")

let test_envelope_pass () =
  let ok = Report.holds "a" true and bad = Report.equals "b" 1 0 in
  check "no criteria pass" true (Report.pass (sample []));
  check "all pass" true (Report.pass (sample [ ok; ok ]));
  check "one fails" false (Report.pass (sample [ ok; bad; ok ]));
  check "json pass is the conjunction" true
    (contains (Json.to_string (Report.to_json (sample [ ok; bad ]))) {|"pass": false
}|})

let test_envelope_exit_status () =
  let path = Filename.temp_file "snslp" ".json" in
  let passing = sample [ Report.holds "a" true ] in
  let failing = sample [ Report.at_least "speedup" (Report.Num (2.9, Report.Times 2)) 3.0 ] in
  Alcotest.(check int) "passing exits 0" 0 (Report.finish ~path passing);
  Alcotest.(check int) "failing exits 1" 1 (Report.finish ~path failing);
  let content = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  check "the failing report is written" true (contains content {|"limit": ">= 3x"|})

let suite =
  [
    ( "report",
      [
        Alcotest.test_case "mean/stddev/geomean" `Quick test_mean_stddev;
        Alcotest.test_case "sample protocol" `Quick test_sample_protocol;
        Alcotest.test_case "table render" `Quick test_table_render;
        Alcotest.test_case "bars" `Quick test_bar;
        Alcotest.test_case "envelope json" `Quick test_envelope_json;
        Alcotest.test_case "envelope text" `Quick test_envelope_text;
        Alcotest.test_case "envelope pass" `Quick test_envelope_pass;
        Alcotest.test_case "envelope exit status" `Quick test_envelope_exit_status;
      ] );
  ]
