(* The one JSONL framing under the journal, epoch, timeline and
   bench-history formats: every reader names the physical line of a
   bad record (blank lines count), every reader applies the same
   schema gate, and the committed bench history round-trips. *)

open Feam_util
module Recorder = Feam_flightrec.Recorder
module Journal = Feam_flightrec.Journal
module Snapshot = Feam_drift.Snapshot
module Timeline = Feam_drift.Timeline
module Benchtrend = Feam_obs.Benchtrend

let contains = Test_flightrec.contains

(* A rendered document of each format, from that format's own writer. *)

let journal_doc =
  lazy
    (Feam_obs.reset ();
     let (), text =
       Test_flightrec.with_recorder (fun () ->
           Recorder.evidence ~stage:"bdc" ~kind:"objdump" (fun () ->
               [ ("needed", Json.List [ Json.Str "libc.so.6" ]) ]);
           Recorder.decision ~determinant:"isa" ~verdict:"ok" (fun () ->
               [ ("machine", Json.Str "x86_64") ]))
     in
     Feam_obs.reset ();
     text)

let epoch_doc =
  lazy
    (Snapshot.to_jsonl
       {
         Snapshot.epoch = 2;
         seed = 42;
         label = "remove-lib libm.so.6 @ fir";
         sites =
           [
             {
               Snapshot.ss_name = "fir";
               ss_ld_cache_current = true;
               ss_discovery = Json.Obj [ ("glibc", Json.Str "2.5") ];
               ss_inventory = [ ("/lib64/libm.so.6", "d1") ];
             };
           ];
         binaries =
           [
             {
               Snapshot.bs_id = "ep.A@fir";
               bs_home = "fir";
               bs_digest = "d2";
               bs_error = None;
               bs_description = Json.Obj [ ("machine", Json.Str "x86_64") ];
               bs_bundle = [ ("copy:libm.so.6", "d1") ];
             };
           ];
         possession = [ ("ranger", [ "d1" ]) ];
         cells =
           [
             {
               Snapshot.cl_binary = "ep.A@fir";
               cl_target = "ranger";
               cl_basic = true;
               cl_basic_reasons = [];
               cl_extended = false;
               cl_extended_reasons = [ "missing libm.so.6" ];
               cl_staged = [ "libm.so.6" ];
             };
           ];
       })

let timeline_doc =
  lazy
    (Timeline.render_history
       (List.map
          (fun (epoch, ready, flips) ->
            {
              Timeline.te_epoch = epoch;
              te_hash = Printf.sprintf "h%d" epoch;
              te_label = "";
              te_cells_total = 2;
              te_ready = ready;
              te_rate = float_of_int ready /. 2.0;
              te_reevaluated = 2;
              te_flips = flips;
              te_attribution =
                [
                  {
                    Timeline.ae_atom = "site fir ld_cache_current";
                    ae_cells = 1;
                    ae_to_ready = 0;
                    ae_to_not_ready = 1;
                  };
                ];
            })
          [
            (0, 2, []);
            ( 1,
              1,
              [
                { Timeline.fe_cell = "b->s"; fe_before = true; fe_after = false };
              ] );
          ]))

let bench_doc =
  lazy
    (Benchtrend.render_history
       [
         { Benchtrend.seq = 1; benches = [ ("a", 100.5); ("b", 2.25) ] };
         { Benchtrend.seq = 3; benches = [ ("a", 99.0) ] };
       ])

let ignore_ok r = Result.map ignore r

(* (format, reader, a rendered document) *)
let readers =
  [
    ( "journal",
      (fun s -> ignore_ok (Journal.parse s)),
      journal_doc );
    ( "epoch",
      (fun s -> ignore_ok (Snapshot.of_jsonl s)),
      epoch_doc );
    ( "timeline",
      (fun s -> ignore_ok (Timeline.parse_history s)),
      timeline_doc );
    ( "bench history",
      (fun s -> ignore_ok (Benchtrend.parse_history s)),
      bench_doc );
  ]

let lines doc = List.filter (fun l -> l <> "") (String.split_on_char '\n' doc)

(* A leading blank line, a valid document, an interior blank line,
   then the document's second record cut in half: the error names the
   cut line's physical number, which counts both blank lines. *)
let test_physical_line_numbers () =
  List.iter
    (fun (name, parse, doc) ->
      let doc = Lazy.force doc in
      let second = List.nth (lines doc) 1 in
      let corrupt = String.sub second 0 (String.length second / 2) in
      let want = Printf.sprintf "line %d:" (List.length (lines doc) + 3) in
      match parse ("\n" ^ doc ^ "\n" ^ corrupt ^ "\n") with
      | Ok () -> Alcotest.failf "%s: a truncated record parsed" name
      | Error e ->
        if not (String.length e >= String.length want
                && String.sub e 0 (String.length want) = want)
        then Alcotest.failf "%s: want %S, got %S" name want e)
    readers

(* Re-stamp every "schema" tag in a document (the header's or every
   record's) with [schema]. *)
let with_schema schema doc =
  lines doc
  |> List.map (fun line ->
         match Json.parse line with
         | Ok (Json.Obj fields) ->
           Json.render
             (Json.Obj
                (List.map
                   (fun (k, v) ->
                     if k = "schema" then (k, Json.Int schema) else (k, v))
                   fields))
         | _ -> line)
  |> List.map (fun line -> line ^ "\n")
  |> String.concat ""

(* One gate, 1 <= schema <= current, for all four readers. *)
let test_schema_gate () =
  List.iter
    (fun (name, parse, doc) ->
      let doc = Lazy.force doc in
      (* the current schema is the one the writer stamped *)
      let current =
        match Json.parse (List.hd (lines doc)) with
        | Ok record -> (
          match Option.bind (Json.member "schema" record) Json.to_int_opt with
          | Some n -> n
          | None -> Alcotest.failf "%s: first line has no schema" name)
        | Error e -> Alcotest.failf "%s: %s" name e
      in
      List.iter
        (fun (schema, accepted) ->
          match (parse (with_schema schema doc), accepted) with
          | Ok (), true -> ()
          | Error e, false ->
            if not (contains ~affix:"schema" e) then
              Alcotest.failf "%s schema %d: error %S does not name the schema"
                name schema e
          | Ok (), false -> Alcotest.failf "%s: schema %d accepted" name schema
          | Error e, true ->
            Alcotest.failf "%s: schema %d rejected: %s" name schema e)
        [ (0, false); (current, true); (current + 1, false) ])
    readers

let test_error_rendering () =
  let cases =
    [
      (Jsonl.Empty "epoch", "empty epoch document");
      ( Jsonl.Syntax (3, "at offset 0: unexpected 'x'"),
        "line 3: at offset 0: unexpected 'x'" );
      ( Jsonl.Wrong_kind (1, "journal"),
        "line 1: not a journal document (missing \
         {\"type\":\"journal\"} header)" );
      (Jsonl.Schema (2, None, 1), "line 2: missing integer schema");
      ( Jsonl.Schema (2, Some 0, 1),
        "line 2: unsupported schema 0 (this build reads 1..1)" );
      ( Jsonl.Order (4, "run", 2, 2),
        "line 4: run 2 does not increase on previous run 2" );
      (Jsonl.Record (5, "record has no seq"), "line 5: record has no seq");
    ]
  in
  List.iter
    (fun (e, want) ->
      Alcotest.(check string) want want (Jsonl.error_to_string e))
    cases

(* Two ns values in the committed history were written as JSON
   integers; the float field renders them back with a ".0", so the
   first pass is a normalization and every later pass is the identity,
   with the same runs. *)
let test_bench_history_roundtrip () =
  let text =
    In_channel.with_open_text "../BENCH_history.jsonl" In_channel.input_all
  in
  let parse text =
    match Benchtrend.parse_history text with
    | Ok runs -> runs
    | Error e -> Alcotest.failf "BENCH_history.jsonl: %s" e
  in
  let runs = parse text in
  Alcotest.(check int) "one run per line"
    (List.length (lines text))
    (List.length runs);
  let once = Benchtrend.render_history runs in
  Alcotest.(check bool) "the runs survive a round trip" true (parse once = runs);
  Alcotest.(check string) "render . parse is the identity on its own output"
    once (Benchtrend.render_history (parse once))

let suite =
  ( "jsonl",
    [
      Alcotest.test_case "errors name the physical line" `Quick
        test_physical_line_numbers;
      Alcotest.test_case "one schema gate for all four readers" `Quick
        test_schema_gate;
      Alcotest.test_case "one error rendering" `Quick test_error_rendering;
      Alcotest.test_case "BENCH_history.jsonl round-trips" `Quick
        test_bench_history_roundtrip;
    ] )
