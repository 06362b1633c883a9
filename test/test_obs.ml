(* Tests for the feam.obs observability layer: span nesting over a
   manual clock, the zero-cost disabled path, histogram bucketing, the
   JSONL exporter over a real in-process predict pipeline (fixed clock,
   so timestamps are zeroed and the output is deterministic), the
   Chrome trace_event exporter's parent-first ordering, and the
   lint.findings counters the analysis engine feeds. *)

open Feam_obs

(* A sink that hands the completed spans back to the test. *)
let capture_sink () =
  let spans = ref [] in
  ( spans,
    { Sink.on_span = (fun s -> spans := s :: !spans); flush = (fun () -> ()) }
  )

(* completion order reversed back to arrival order *)
let collected spans = List.rev !spans

let test_span_nesting () =
  Feam_obs.reset ();
  let spans, sink = capture_sink () in
  let clock = Clock.manual () in
  Trace.configure ~clock:(Clock.of_manual clock) sink;
  let result =
    Trace.with_span "root" ~attrs:[ ("k", Span.Str "v") ] @@ fun () ->
    Clock.advance clock 10L;
    Trace.with_span "child1" (fun () ->
        Clock.advance clock 5L;
        Trace.event "tick";
        Trace.set_attr "n" (Span.Int 1));
    Trace.with_span "child2" (fun () -> Clock.advance clock 7L);
    Clock.advance clock 3L;
    42
  in
  Feam_obs.reset ();
  Alcotest.(check int) "with_span returns the thunk's value" 42 result;
  let ordered = collected spans in
  Alcotest.(check (list string))
    "children complete before the root"
    [ "child1"; "child2"; "root" ]
    (List.map (fun s -> s.Span.name) ordered);
  let find n = List.find (fun s -> s.Span.name = n) ordered in
  let root = find "root" and c1 = find "child1" and c2 = find "child2" in
  Alcotest.(check int) "root depth" 0 root.Span.depth;
  Alcotest.(check int) "child depth" 1 c1.Span.depth;
  Alcotest.(check (option int)) "root has no parent" None root.Span.parent;
  Alcotest.(check (option int))
    "child1 parented to root" (Some root.Span.id) c1.Span.parent;
  Alcotest.(check (option int))
    "child2 parented to root" (Some root.Span.id) c2.Span.parent;
  Alcotest.(check int64) "root start" 0L root.Span.start_ns;
  Alcotest.(check int64) "root duration" 25L root.Span.duration_ns;
  Alcotest.(check int64) "child1 start" 10L c1.Span.start_ns;
  Alcotest.(check int64) "child1 duration" 5L c1.Span.duration_ns;
  Alcotest.(check int64) "child2 start" 15L c2.Span.start_ns;
  Alcotest.(check int64) "child2 duration" 7L c2.Span.duration_ns;
  (match root.Span.attrs with
  | [ ("k", Span.Str "v") ] -> ()
  | _ -> Alcotest.fail "root attrs wrong");
  (match c1.Span.attrs with
  | [ ("n", Span.Int 1) ] -> ()
  | _ -> Alcotest.fail "child1 attrs wrong");
  match c1.Span.events with
  | [ { Span.ev_name = "tick"; ev_at_ns = 15L; ev_attrs = [] } ] -> ()
  | _ -> Alcotest.fail "child1 events wrong"

let test_span_exception_safety () =
  Feam_obs.reset ();
  let spans, sink = capture_sink () in
  Trace.configure sink;
  (try Trace.with_span "boom" (fun () -> raise Exit) with Exit -> ());
  Trace.with_span "after" (fun () -> ());
  Feam_obs.reset ();
  let ordered = collected spans in
  Alcotest.(check (list string))
    "raising span still completes"
    [ "boom"; "after" ]
    (List.map (fun s -> s.Span.name) ordered);
  let after = List.find (fun s -> s.Span.name = "after") ordered in
  Alcotest.(check (option int))
    "stack popped despite the raise" None after.Span.parent

(* A sink that raises on the span named "boom". *)
let raising_sink () =
  let spans, sink = capture_sink () in
  ( spans,
    {
      sink with
      Sink.on_span =
        (fun s -> if s.Span.name = "boom" then failwith "sink" else sink.Sink.on_span s);
    } )

(* The sink sees the span after the body: a sink that raises surfaces
   its own exception when the body returned, and the body's when both
   raised.  Either way the span stack is popped. *)
let test_raising_sink () =
  Feam_obs.reset ();
  let spans, sink = raising_sink () in
  Trace.configure sink;
  Alcotest.check_raises "the sink's exception surfaces" (Failure "sink") (fun () ->
      Trace.with_span "boom" ignore);
  Alcotest.check_raises "the body's exception surfaces" Exit (fun () ->
      Trace.with_span "boom" (fun () -> raise Exit));
  Trace.with_span "after" (fun () -> ());
  Feam_obs.reset ();
  match collected spans with
  | [ after ] ->
    Alcotest.(check (option int)) "stack popped despite the raises" None
      after.Span.parent
  | spans -> Alcotest.failf "%d spans reached the sink, expected 1" (List.length spans)

let test_disabled_is_free () =
  Feam_obs.reset ();
  Alcotest.(check (option int))
    "tracing off by default" None
    (Trace.with_span "probe" Trace.current_span_id);
  let f () = () in
  Trace.with_span "warmup" f;
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    Trace.with_span "x" f
  done;
  let allocated = Gc.minor_words () -. before in
  Alcotest.(check (float 0.0))
    "disabled with_span allocates nothing" 0.0 allocated;
  Alcotest.(check int)
    "disabled with_span still returns the value" 7
    (Trace.with_span "y" (fun () -> 7))

let test_histogram_bucketing () =
  Metrics.reset ();
  let bounds = [| 1.0; 10.0; 100.0 |] in
  List.iter
    (fun v -> Metrics.observe ~bounds "t.hist" v)
    [ 0.5; 1.0; 5.0; 10.0; 99.0; 100.0; 101.0; 1000.0 ];
  match Metrics.histogram_value "t.hist" with
  | None -> Alcotest.fail "histogram not registered"
  | Some h ->
    Alcotest.(check (array int))
      "values land in the right buckets (last = overflow)"
      [| 2; 2; 2; 2 |] h.Metrics.counts;
    Alcotest.(check int) "count" 8 h.Metrics.count;
    Alcotest.(check (float 1e-9)) "sum" 1316.5 h.Metrics.sum;
    Alcotest.(check (float 1e-9)) "mean" (1316.5 /. 8.0) (Metrics.hist_mean h)

let test_counter_label_normalization () =
  Metrics.reset ();
  Metrics.incr ~labels:[ ("b", "2"); ("a", "1") ] "t.counter";
  Metrics.incr ~by:2 ~labels:[ ("a", "1"); ("b", "2") ] "t.counter";
  Alcotest.(check (option int))
    "label order does not split the series" (Some 3)
    (Metrics.counter_value ~labels:[ ("b", "2"); ("a", "1") ] "t.counter")

let test_histogram_boundary_values () =
  Metrics.reset ();
  let bounds = [| 10.0; 20.0 |] in
  (* a value exactly equal to a bound belongs to that bound's bucket
     (bounds are inclusive upper edges), and the first value past the
     last bound overflows *)
  List.iter
    (fun v -> Metrics.observe ~bounds "t.edge" v)
    [ 10.0; 20.0; 20.0000001 ];
  (match Metrics.histogram_value "t.edge" with
  | None -> Alcotest.fail "histogram not registered"
  | Some h ->
    Alcotest.(check (array int))
      "bound-exact values stay below their bound" [| 1; 1; 1 |] h.Metrics.counts);
  (* a second observe with different bounds does not re-bucket: the
     histogram keeps the bounds it was created with *)
  Metrics.observe ~bounds:[| 1000.0 |] "t.edge" 15.0;
  match Metrics.histogram_value "t.edge" with
  | None -> Alcotest.fail "histogram vanished"
  | Some h ->
    Alcotest.(check (array int))
      "creation-time bounds hold" [| 1; 2; 1 |] h.Metrics.counts

let test_log_linear_buckets () =
  (* the bucket a value lands in, read back through the registry *)
  let observed_bucket v =
    Metrics.reset ();
    Metrics.observe "t.default" v;
    let h = Option.get (Metrics.histogram_value "t.default") in
    let rec find i = if h.Metrics.counts.(i) = 1 then i else find (i + 1) in
    (h.Metrics.bounds, find 0)
  in
  let b, _ = observed_bucket 0.0 in
  let n = Array.length b in
  Alcotest.(check (float 0.0)) "first bound is 2^10 ns (~1 us)" 1024.0 b.(0);
  Alcotest.(check (float 0.0)) "last bound is 2^34 ns (~17 s)" (2.0 ** 34.0)
    b.(n - 1);
  for i = 1 to n - 1 do
    if not (b.(i) > b.(i - 1) && b.(i) -. b.(i - 1) <= 0.25 *. b.(i - 1)) then
      Alcotest.failf "bucket %d (%g, %g] is empty or wider than 25%%" i
        b.(i - 1) b.(i)
  done;
  (* the O(1) index agrees with the inclusive linear scan everywhere:
     on every bound, just either side of it, and far outside the range *)
  let scan v =
    let rec go i = if i >= n || v <= b.(i) then i else go (i + 1) in
    go 0
  in
  let probes =
    [ 0.0; -5.0; 1.0; 1e12; infinity ]
    @ List.concat_map
        (fun x -> [ x; Float.pred x; Float.succ x; x *. 1.1 ])
        (Array.to_list b)
  in
  List.iter
    (fun v ->
      Alcotest.(check int)
        (Printf.sprintf "bucket of %h" v)
        (scan v) (snd (observed_bucket v)))
    probes;
  Metrics.reset ()

let test_label_value_collision () =
  Metrics.reset ();
  (* the registry key is "name{k=v,...}": a label *value* containing
     ",b=2" therefore collides with the distinct label set [a=1; b=2].
     This characterizes the known flattening — both writes land in one
     series rather than silently creating a second one. *)
  Metrics.incr ~labels:[ ("a", "1,b=2") ] "t.collide";
  Metrics.incr ~labels:[ ("a", "1"); ("b", "2") ] "t.collide";
  Alcotest.(check (option int))
    "colliding label sets share a series" (Some 2)
    (Metrics.counter_value ~labels:[ ("a", "1,b=2") ] "t.collide");
  Alcotest.(check int) "and only one series exists" 1
    (List.length (Metrics.snapshot ()))

let test_with_sim_phase () =
  Feam_obs.reset ();
  let spans, sink = capture_sink () in
  Trace.configure sink;
  let sim = Feam_util.Sim_clock.create () in
  Feam_obs.with_sim_phase ~name:"t.phase" ~metric:"t.phase_s" ~phase:"source"
    sim (fun () -> Feam_sysmodel.Cost.charge 2.5);
  Trace.disable ();
  (match collected spans with
  | [ s ] -> (
    Alcotest.(check string) "span name" "t.phase" s.Span.name;
    match List.assoc_opt "sim_s" s.Span.attrs with
    | Some (Span.Float v) -> Alcotest.(check (float 1e-9)) "sim_s attr" 2.5 v
    | _ -> Alcotest.fail "sim_s attribute missing")
  | _ -> Alcotest.fail "expected exactly one span");
  match Metrics.histogram_value "t.phase_s" ~labels:[ ("phase", "source") ] with
  | None -> Alcotest.fail "phase histogram not registered"
  | Some h ->
    Alcotest.(check int) "one observation" 1 h.Metrics.count;
    Alcotest.(check (float 1e-9)) "simulated seconds recorded" 2.5 h.Metrics.sum;
    (* 2.5 s lands in the <=5 s bucket of the paper's §VI.C bounds *)
    Alcotest.(check int) "bucketed under 5 s" 1 h.Metrics.counts.(2);
    Metrics.reset ()

(* -- exporters over the real pipeline ----------------------------------- *)

(* Source phase + target phase over two fixture sites, the same work
   `feam predict` traces. *)
let run_pipeline () =
  let home, home_installs = Fixtures.small_site ~name:"obs-home" () in
  let target, _ = Fixtures.small_site ~name:"obs-target" () in
  let path, install = Fixtures.compiled_binary home home_installs in
  let env = Fixtures.session_env home install in
  let config = Feam_core.Config.default in
  match Feam_core.Phases.source_phase config home env ~binary_path:path with
  | Error e -> Alcotest.failf "source phase failed: %s" e
  | Ok bundle -> (
    match
      Feam_core.Phases.target_phase config target
        (Feam_sysmodel.Site.base_env target)
        ~bundle ()
    with
    | Error e -> Alcotest.failf "target phase failed: %s" e
    | Ok report -> report)

let span_schema_keys =
  [ "type"; "id"; "parent"; "depth"; "name"; "start_ns"; "dur_ns"; "attrs";
    "events" ]

let test_jsonl_pipeline_golden () =
  Feam_obs.reset ();
  let out = Buffer.create 4096 in
  Trace.configure ~clock:(Clock.fixed ())
    (Sink.jsonl ~emit:(Buffer.add_string out) ());
  let report = run_pipeline () in
  Feam_obs.flush ();
  Feam_obs.reset ();
  Alcotest.(check bool)
    "pipeline predicted ready" true
    (Feam_core.Predict.is_ready (Feam_core.Report.prediction report));
  let lines =
    String.split_on_char '\n' (Buffer.contents out)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check bool) "spans were exported" true (List.length lines > 10);
  let names =
    List.map
      (fun line ->
        match Feam_util.Json.parse line with
        | Error e -> Alcotest.failf "JSONL line does not parse: %s" e
        | Ok json ->
          List.iter
            (fun k ->
              if Feam_util.Json.member k json = None then
                Alcotest.failf "span record lacks %S" k)
            span_schema_keys;
          Alcotest.(check (option string))
            "record type" (Some "span")
            Option.(bind (Feam_util.Json.member "type" json)
                      Feam_util.Json.to_string_opt);
          (* the fixed test clock zeroes every timestamp *)
          Alcotest.(check (option int))
            "start_ns zeroed" (Some 0)
            Option.(bind (Feam_util.Json.member "start_ns" json)
                      Feam_util.Json.to_int_opt);
          Alcotest.(check (option int))
            "dur_ns zeroed" (Some 0)
            Option.(bind (Feam_util.Json.member "dur_ns" json)
                      Feam_util.Json.to_int_opt);
          Option.get
            Option.(bind (Feam_util.Json.member "name" json)
                      Feam_util.Json.to_string_opt))
      lines
  in
  (* the pipeline's landmark spans all appear... *)
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "trace contains %s" expected)
        true (List.mem expected names))
    [ "phases.source"; "bdc.describe"; "bdc.gather_source"; "edc.discover";
      "probe.test_stack"; "tec.evaluate"; "predict.check.isa";
      "predict.check.clib"; "predict.check.stack"; "predict.check.libs";
      "phases.target" ];
  (* ...and completion order puts the target phase root last *)
  Alcotest.(check string)
    "target phase completes last" "phases.target"
    (List.nth names (List.length names - 1))

let test_jsonl_silent_when_disabled () =
  Feam_obs.reset ();
  (* no configure: the pipeline must not produce trace output *)
  let report = run_pipeline () in
  Alcotest.(check bool)
    "pipeline predicted ready" true
    (Feam_core.Predict.is_ready (Feam_core.Report.prediction report));
  Feam_obs.flush () (* flushing the no-op sink emits nothing and cannot raise *)

let test_chrome_export_parent_first () =
  Feam_obs.reset ();
  let out = Buffer.create 1024 in
  let clock = Clock.manual () in
  Trace.configure ~clock:(Clock.of_manual clock)
    (Sink.chrome ~emit:(Buffer.add_string out) ());
  (Trace.with_span "root" @@ fun () ->
   Trace.with_span "child" (fun () -> Clock.advance clock 2000L);
   Clock.advance clock 500L);
  Feam_obs.flush ();
  Feam_obs.reset ();
  match Feam_util.Json.parse (Buffer.contents out) with
  | Error e -> Alcotest.failf "chrome trace does not parse: %s" e
  | Ok json -> (
    match
      Option.bind (Feam_util.Json.member "traceEvents" json)
        Feam_util.Json.to_list_opt
    with
    | None -> Alcotest.fail "no traceEvents array"
    | Some events ->
      let field k e =
        Option.bind (Feam_util.Json.member k e) Feam_util.Json.to_string_opt
      in
      Alcotest.(check (list (option string)))
        "complete events" [ Some "X"; Some "X" ]
        (List.map (field "ph") events);
      (* both start at ts 0; the longer (enclosing) span sorts first so
         viewers nest the child under the parent *)
      Alcotest.(check (list (option string)))
        "parent-first at equal timestamps"
        [ Some "root"; Some "child" ]
        (List.map (field "name") events))

let test_lint_findings_counter () =
  Feam_obs.reset ();
  let site, installs = Fixtures.small_site ~name:"obs-lint" () in
  let path, install = Fixtures.compiled_binary site installs in
  let env = Fixtures.session_env site install in
  match
    Feam_core.Phases.source_phase Feam_core.Config.default site env
      ~binary_path:path
  with
  | Error e -> Alcotest.failf "source phase failed: %s" e
  | Ok bundle ->
    Metrics.reset ();
    (* an ancient target glibc trips the per-symbol binding rule *)
    let target =
      Feam_analysis.Context.make_target
        ~glibc:(Feam_util.Version.of_string_exn "2.0") ()
    in
    let ctx = Feam_analysis.Context.of_bundle ~target bundle in
    let findings = Feam_analysis.Engine.run ctx in
    Alcotest.(check bool)
      "old target produces findings" true
      (List.length findings > 0);
    let counted =
      List.fold_left
        (fun acc (_, e) ->
          if e.Metrics.name = "lint.findings" then
            match e.Metrics.metric with
            | Metrics.Counter c -> acc + !c
            | _ -> acc
          else acc)
        0 (Metrics.snapshot ())
    in
    Alcotest.(check int)
      "lint.findings counters account for every finding"
      (List.length findings) counted;
    Metrics.reset ()

let suite =
  ( "obs",
    [
      Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
      Alcotest.test_case "span exception safety" `Quick
        test_span_exception_safety;
      Alcotest.test_case "a raising sink leaves the body's exception" `Quick
        test_raising_sink;
      Alcotest.test_case "disabled tracing is free" `Quick test_disabled_is_free;
      Alcotest.test_case "histogram bucketing" `Quick test_histogram_bucketing;
      Alcotest.test_case "counter label normalization" `Quick
        test_counter_label_normalization;
      Alcotest.test_case "histogram boundary values" `Quick
        test_histogram_boundary_values;
      Alcotest.test_case "log-linear default buckets" `Quick
        test_log_linear_buckets;
      Alcotest.test_case "label value collision" `Quick
        test_label_value_collision;
      Alcotest.test_case "with_sim_phase" `Quick test_with_sim_phase;
      Alcotest.test_case "jsonl pipeline export" `Quick
        test_jsonl_pipeline_golden;
      Alcotest.test_case "no trace output when disabled" `Quick
        test_jsonl_silent_when_disabled;
      Alcotest.test_case "chrome export parent-first" `Quick
        test_chrome_export_parent_first;
      Alcotest.test_case "lint findings counter" `Quick
        test_lint_findings_counter;
    ] )
