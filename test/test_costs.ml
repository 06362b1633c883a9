(* Tests for the cost observatory: labeled timers and their interplay
   with the metrics freeze, span allocation accounting, the Prometheus /
   JSONL exposition surfaces (byte-determinism under a fixed clock,
   label escaping round-trip), the cost ledger's self-cost accounting
   over a manual clock, and the perf-regression sentinel's history
   schema and comparison logic. *)

open Feam_obs

(* -- Prof: labeled timers -------------------------------------------------- *)

let test_prof_records () =
  Feam_obs.reset ();
  let clock = Clock.manual () in
  Prof.set_clock (Clock.of_manual clock);
  Prof.set_enabled true;
  let result =
    Prof.with_timer ~labels:[ ("op", "x") ] "work" (fun () ->
        Clock.advance clock 250L;
        ignore (Sys.opaque_identity (String.make 64 'a'));
        7)
  in
  Alcotest.(check int) "thunk value returned" 7 result;
  Alcotest.(check (option int))
    "calls counter bumped"
    (Some 1)
    (Metrics.counter_value ~labels:[ ("op", "x") ] "work.calls");
  (match Metrics.histogram_value ~labels:[ ("op", "x") ] "work.ns" with
  | Some h ->
    Alcotest.(check int) "one duration sample" 1 h.Metrics.count;
    Alcotest.(check (float 0.0)) "duration from the clock" 250.0 h.Metrics.sum
  | None -> Alcotest.fail "work.ns histogram missing");
  (match Metrics.histogram_value ~labels:[ ("op", "x") ] "work.alloc_words" with
  | Some h ->
    Alcotest.(check int) "one allocation sample" 1 h.Metrics.count;
    if h.Metrics.sum < 8.0 then
      Alcotest.failf "allocation sum %.1f too small for a 64-byte string"
        h.Metrics.sum
  | None -> Alcotest.fail "work.alloc_words histogram missing");
  Feam_obs.reset ()

let test_prof_disabled_noop () =
  Feam_obs.reset ();
  (* reset leaves Prof disabled: timing a thunk must leave no trace *)
  let result = Prof.with_timer "idle" (fun () -> 3) in
  Alcotest.(check int) "thunk still runs" 3 result;
  Alcotest.(check (option int))
    "no counter recorded" None
    (Metrics.counter_value "idle.calls");
  Alcotest.(check bool)
    "no histogram recorded" true
    (Metrics.histogram_value "idle.ns" = None)

(* -- Trace: span allocation accounting ------------------------------------- *)

let test_span_alloc_attrs () =
  Feam_obs.reset ();
  let spans = ref [] in
  let sink =
    { Sink.on_span = (fun s -> spans := s :: !spans); flush = (fun () -> ()) }
  in
  Trace.configure sink;
  Trace.set_record_alloc true;
  Trace.with_span "alloc" ~attrs:[ ("tag", Span.Str "t") ] (fun () ->
      (* small boxed values land on the minor heap, which Gc.minor_words
         tracks precisely even mid-cycle; opaque_identity keeps the
         optimizer from deleting the unused allocation *)
      ignore (Sys.opaque_identity (List.init 500 (fun i -> float_of_int i))));
  Feam_obs.reset ();
  match !spans with
  | [ span ] -> (
    (* declared attrs first, then the two alloc attrs *)
    (match span.Span.attrs with
    | ("tag", _) :: _ -> ()
    | _ -> Alcotest.fail "declared attr should come first");
    let words attr =
      match List.assoc_opt attr span.Span.attrs with
      | Some (Span.Float w) -> w
      | _ -> Alcotest.failf "%s attr missing" attr
    in
    (* 500 cons cells + 500 boxed floats: well over 1000 minor words *)
    if words "alloc_minor_w" < 1000.0 then
      Alcotest.failf "alloc_minor_w %.0f too small for 500 boxed floats"
        (words "alloc_minor_w");
    ignore (words "alloc_major_w"))
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

(* -- Expo: label escaping and exposition formats --------------------------- *)

(* A label value as the Prometheus exposition renders it: escaping is
   checked through the public renderer. *)
let prom_label v =
  Metrics.reset ();
  Metrics.incr ~labels:[ ("v", v) ] "t.escape";
  let out = Expo.render_prom () in
  Metrics.reset ();
  let prefix = "feam_t_escape{v=\"" in
  match
    List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' out)
  with
  | None -> Alcotest.failf "no t.escape sample in:\n%s" out
  | Some line ->
    (* the sample line ends with "\"} 1" *)
    let close = String.rindex line '}' in
    String.sub line (String.length prefix) (close - 1 - String.length prefix)

let test_label_escape_roundtrip () =
  (* each special gets its own escape, so the form reads back uniquely *)
  let cases =
    [
      ("plain", "plain");
      ("with \"quotes\"", "with \\\"quotes\\\"");
      ("back\\slash", "back\\\\slash");
      ("new\nline", "new\\nline");
      ("all three: \\ \" \n mixed", "all three: \\\\ \\\" \\n mixed");
      ("", "");
    ]
  in
  List.iter
    (fun (v, escaped) ->
      Alcotest.(check string) (Printf.sprintf "escaped %S" v) escaped (prom_label v))
    cases;
  (* escaped forms contain no raw specials *)
  let escaped = prom_label "a\"b\\c\nd" in
  Alcotest.(check bool)
    "no raw newline in escaped form" false
    (String.contains escaped '\n');
  Alcotest.(check string) "exact escaped form" "a\\\"b\\\\c\\nd" escaped

let populate_registry () =
  Metrics.incr ~by:3 ~labels:[ ("site", "a\"b") ] "demo.requests";
  Metrics.set_gauge "demo.ratio" 0.5;
  Metrics.observe ~bounds:[| 10.0; 100.0 |] "demo.latency" 5.0;
  Metrics.observe ~bounds:[| 10.0; 100.0 |] "demo.latency" 50.0;
  Metrics.observe ~bounds:[| 10.0; 100.0 |] "demo.latency" 5000.0

let test_prom_format () =
  Feam_obs.reset ();
  populate_registry ();
  let out = Expo.render_prom () in
  Feam_obs.reset ();
  let has needle =
    let nl = String.length needle and ol = String.length out in
    let rec go i = i + nl <= ol && (String.sub out i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun line ->
      if not (has line) then Alcotest.failf "missing %S in:\n%s" line out)
    [
      "# TYPE feam_demo_requests counter";
      "feam_demo_requests{site=\"a\\\"b\"} 3";
      "# TYPE feam_demo_ratio gauge";
      "feam_demo_ratio 0.5";
      "# TYPE feam_demo_latency histogram";
      (* buckets are cumulative: 1 at le=10, 2 at le=100, 3 total *)
      "feam_demo_latency_bucket{le=\"10\"} 1";
      "feam_demo_latency_bucket{le=\"100\"} 2";
      "feam_demo_latency_bucket{le=\"+Inf\"} 3";
      "feam_demo_latency_sum 5055";
      "feam_demo_latency_count 3";
    ]

let test_exposition_deterministic () =
  let render () =
    Feam_obs.reset ();
    populate_registry ();
    let prom = Expo.render_prom () in
    let jsonl = Expo.render_jsonl () in
    Feam_obs.reset ();
    (prom, jsonl)
  in
  let p1, j1 = render () in
  let p2, j2 = render () in
  Alcotest.(check string) "prom output byte-identical" p1 p2;
  Alcotest.(check string) "jsonl output byte-identical" j1 j2

let test_jsonl_records () =
  Feam_obs.reset ();
  populate_registry ();
  let out = Expo.render_jsonl () in
  Feam_obs.reset ();
  let lines =
    String.split_on_char '\n' out |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one record per registry entry" 3 (List.length lines);
  List.iter
    (fun line ->
      match Feam_util.Json.parse line with
      | Error e -> Alcotest.failf "record does not parse: %s (%s)" line e
      | Ok json ->
        Alcotest.(check (option int))
          "fixed clock zeroes ts_ns" (Some 0)
          (Option.bind
             (Feam_util.Json.member "ts_ns" json)
             Feam_util.Json.to_int_opt))
    lines

(* -- Ledger: self-cost attribution over a manual clock --------------------- *)

(* The cells of the rendered table row whose first cell is [name]. *)
let ledger_row rendered name =
  let cells line =
    String.split_on_char '|' line |> List.map String.trim
    |> List.filter (fun c -> c <> "")
  in
  match
    List.find_opt
      (fun line -> match cells line with c :: _ -> c = name | [] -> false)
      (String.split_on_char '\n' rendered)
  with
  | Some line -> cells line
  | None -> Alcotest.failf "no ledger row %S in:\n%s" name rendered

let test_ledger_self_cost () =
  Feam_obs.reset ();
  let clock = Clock.manual () in
  let t = Ledger.create ~clock:(Clock.of_manual clock) () in
  (* whole milliseconds, so the rendered ms columns are exact *)
  let advance ms = Clock.advance clock (Int64.mul ms 1_000_000L) in
  Ledger.install t;
  Ledger.with_cell "bt.A->siteB" (fun () ->
      Ledger.with_stage "outer" (fun () ->
          advance 10L;
          Ledger.with_stage "inner" (fun () -> advance 5L);
          Ledger.with_determinant "isa" (fun () -> advance 4L);
          advance 2L));
  Ledger.uninstall ();
  let rendered = Ledger.render t in
  let row = ledger_row rendered in
  (* stage and determinant rows: name, calls, self kw, self ms, total
     kw, total ms *)
  Alcotest.(check string) "outer total includes children" "21.000"
    (List.nth (row "outer") 5);
  Alcotest.(check string) "outer self excludes children" "12.000"
    (List.nth (row "outer") 3);
  Alcotest.(check string) "inner self" "5.000" (List.nth (row "inner") 3);
  Alcotest.(check string) "determinant self" "4.000" (List.nth (row "isa") 3);
  Alcotest.(check string) "each ran once" "1" (List.nth (row "outer") 1);
  Alcotest.(check bool)
    "cell recorded" true
    (String.starts_with ~prefix:"cost ledger: 1 cells," rendered);
  Alcotest.(check (list string))
    "determinant names" [ "Cell"; "Self kw"; "Self ms"; "isa kw" ] (row "Cell");
  (* cell cost = sum of self over all entries = 12 + 5 + 4 *)
  Alcotest.(check string) "cell self-cost sums" "21.000"
    (List.nth (row "bt.A->siteB") 2)

let test_ledger_uninstalled_noop () =
  Ledger.uninstall ();
  let r =
    Ledger.with_cell "c" (fun () ->
        Ledger.with_stage "s" (fun () ->
            Ledger.with_determinant "d" (fun () -> 11)))
  in
  Alcotest.(check int) "thunks run straight through" 11 r

(* -- Benchtrend: the perf-regression sentinel ------------------------------ *)

let run seq benches = { Benchtrend.seq; benches }

let test_benchtrend_outcomes () =
  Alcotest.(check int)
    "empty history exits 0" 0
    (Benchtrend.exit_code (Benchtrend.evaluate []));
  (match Benchtrend.evaluate [ run 1 [ ("a", 100.0) ] ] with
  | Benchtrend.No_baseline r ->
    Alcotest.(check int) "single run reported as no-baseline" 1 r.Benchtrend.seq
  | _ -> Alcotest.fail "single run should be No_baseline");
  (* a 1.5x slowdown on bench a trips the 1.3x threshold; b is steady *)
  let runs =
    [
      run 1 [ ("a", 100.0); ("b", 200.0) ];
      run 2 [ ("a", 100.0); ("b", 200.0) ];
      run 3 [ ("a", 150.0); ("b", 201.0) ];
    ]
  in
  match Benchtrend.evaluate ~window:5 ~threshold:1.30 runs with
  | Benchtrend.Compared report ->
    Alcotest.(check int) "two baseline runs used" 2 report.Benchtrend.window;
    (match List.filter (fun c -> c.Benchtrend.regressed) report.Benchtrend.rows with
    | [ c ] ->
      Alcotest.(check string) "bench a regressed" "a" c.Benchtrend.bench;
      Alcotest.(check (float 1e-9)) "ratio 1.5" 1.5 c.Benchtrend.ratio
    | rs -> Alcotest.failf "expected 1 regression, got %d" (List.length rs));
    Alcotest.(check int)
      "regression exits 1" 1
      (Benchtrend.exit_code (Benchtrend.Compared report));
    let rendered = Benchtrend.render (Benchtrend.Compared report) in
    let contains needle =
      let nl = String.length needle and ol = String.length rendered in
      let rec go i =
        i + nl <= ol && (String.sub rendered i nl = needle || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool) "render flags the regression" true
      (contains "REGRESSED")
  | _ -> Alcotest.fail "three runs should compare"

let test_benchtrend_history_roundtrip () =
  let runs =
    [ run 1 [ ("a", 100.5); ("b", 2.25) ]; run 4 [ ("a", 99.0) ] ]
  in
  (match Benchtrend.parse_history (Benchtrend.render_history runs) with
  | Ok parsed ->
    Alcotest.(check int) "both runs survive" 2 (List.length parsed);
    Alcotest.(check int)
      "seq gap preserved" 4
      (List.nth parsed 1).Benchtrend.seq
  | Error e -> Alcotest.failf "round-trip failed: %s" e);
  (* non-increasing sequence numbers are rejected with a line number *)
  let bad =
    Benchtrend.render_history [ run 2 [ ("a", 1.0) ] ]
    ^ Benchtrend.render_history [ run 2 [ ("a", 1.0) ] ]
  in
  (match Benchtrend.parse_history bad with
  | Ok _ -> Alcotest.fail "duplicate seq should be rejected"
  | Error e ->
    Alcotest.(check bool)
      "error names line 2" true
      (String.length e >= 7 && String.sub e 0 7 = "line 2:"));
  match Benchtrend.parse_history "{\"schema\":1,\"run\":1,\"benches\":{\"a\":-3}}" with
  | Ok _ -> Alcotest.fail "negative ns/op should be rejected"
  | Error _ -> ()

let test_validate_bench_json () =
  let doc benches =
    Feam_util.Json.Obj
      [
        ("schema", Feam_util.Json.Int 1);
        ( "headline_ns_per_op",
          Feam_util.Json.Obj [ ("x", Feam_util.Json.Float 12.0) ] );
        ("benches", Feam_util.Json.List benches);
      ]
  in
  let bench ?(counts = [ 1; 1; 0 ]) () =
    Feam_util.Json.Obj
      [
        ("name", Feam_util.Json.Str "b");
        ("iterations", Feam_util.Json.Int 2);
        ("ns_per_op", Feam_util.Json.Float 42.0);
        ( "bounds_ns",
          Feam_util.Json.List
            [ Feam_util.Json.Float 10.0; Feam_util.Json.Float 100.0 ] );
        ( "bucket_counts",
          Feam_util.Json.List (List.map (fun c -> Feam_util.Json.Int c) counts)
        );
      ]
  in
  (match Benchtrend.validate_bench_json (doc [ bench () ]) with
  | Ok n -> Alcotest.(check int) "valid doc counts benches" 1 n
  | Error es -> Alcotest.failf "valid doc rejected: %s" (String.concat "; " es));
  match Benchtrend.validate_bench_json (doc [ bench ~counts:[ 1; 1; 3 ] () ]) with
  | Ok _ -> Alcotest.fail "bucket/iteration mismatch should be rejected"
  | Error es ->
    Alcotest.(check bool)
      "mismatch reported" true
      (List.exists
         (fun e -> String.length e > 2 && e.[0] = 'b' && e.[1] = ':')
         es)

let suite =
  ( "costs",
    [
      Alcotest.test_case "prof timer records" `Quick test_prof_records;
      Alcotest.test_case "prof disabled is a no-op" `Quick test_prof_disabled_noop;
      Alcotest.test_case "span alloc attrs" `Quick test_span_alloc_attrs;
      Alcotest.test_case "label escape round-trip" `Quick
        test_label_escape_roundtrip;
      Alcotest.test_case "prom exposition format" `Quick test_prom_format;
      Alcotest.test_case "exposition is deterministic" `Quick
        test_exposition_deterministic;
      Alcotest.test_case "jsonl records" `Quick test_jsonl_records;
      Alcotest.test_case "ledger self-cost" `Quick test_ledger_self_cost;
      Alcotest.test_case "ledger uninstalled no-op" `Quick
        test_ledger_uninstalled_noop;
      Alcotest.test_case "benchtrend outcomes" `Quick test_benchtrend_outcomes;
      Alcotest.test_case "benchtrend history round-trip" `Quick
        test_benchtrend_history_roundtrip;
      Alcotest.test_case "bench json validation" `Quick test_validate_bench_json;
    ] )
