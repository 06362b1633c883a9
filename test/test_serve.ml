(* Tests for the resident prediction service: protocol totality (typed
   errors, never an exception, under qcheck fuzz over malformed /
   truncated / oversized request lines), engine semantics (baseline
   equals a cold pass, evidence updates re-evaluate only affected
   cells, registration extends the matrix, every state crosschecks
   byte-for-byte against a full re-evaluation), transcript replay
   byte-identity, graceful drain on SIGINT with an intact journal, and
   the Prometheus exposition of the serve metrics. *)

module Json = Feam_util.Json
module Protocol = Feam_serve.Protocol
module Daemon = Feam_serve.Daemon
module Engine = Feam_serve.Engine
module Snapshot = Feam_drift.Snapshot
module Driftrun = Feam_evalharness.Driftrun
module Invalidate = Feam_drift.Invalidate

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let seed = Feam_evalharness.Params.default.Feam_evalharness.Params.seed

let with_engine f = f (Engine.create ~seed ())

let handle = Engine.handle ~write_file:(fun _ _ -> ())

let member_exn name json =
  match Json.member name json with
  | Some v -> v
  | None -> Alcotest.failf "response has no %S field" name

let int_field name json =
  match member_exn name json with
  | Json.Int n -> n
  | _ -> Alcotest.failf "response field %S is not an int" name

let parse_response line =
  match Json.parse line with
  | Ok json -> json
  | Error e -> Alcotest.failf "unparseable response %s: %s" line e

(* -- protocol ----------------------------------------------------------- *)

let test_protocol_golden () =
  let ok line expected_verb =
    match Protocol.parse line with
    | Ok req ->
      Alcotest.(check string)
        line expected_verb
        (Protocol.verb_of_request req)
    | Error e -> Alcotest.failf "%s: unexpected error %s" line (Protocol.error_code e)
  in
  ok {|{"verb":"predict","binary":"b","target":"t"}|} "predict";
  ok {|{"verb":"predict-batch","queries":[{"binary":"b","target":"t"}]}|}
    "predict-batch";
  ok {|{"verb":"register-site","site":"forge"}|} "register-site";
  ok {|{"verb":"register-binary","home":"fir","benchmark":"is.A"}|}
    "register-binary";
  ok {|{"verb":"update-evidence","site":"fir","action":"stale-ld-cache"}|}
    "update-evidence";
  ok {|{"verb":"update-evidence","site":"fir","action":"remove-lib","lib":"libx.so"}|}
    "update-evidence";
  ok {|{"verb":"snapshot"}|} "snapshot";
  ok {|{"verb":"snapshot","out":"/tmp/epoch.jsonl"}|} "snapshot";
  ok {|{"verb":"crosscheck"}|} "crosscheck";
  ok {|{"verb":"stats"}|} "stats";
  ok {|{"verb":"shutdown"}|} "shutdown";
  let err line code =
    match Protocol.parse line with
    | Ok req ->
      Alcotest.failf "%s: parsed as %s" line (Protocol.verb_of_request req)
    | Error e -> Alcotest.(check string) line code (Protocol.error_code e)
  in
  err "" "empty-line";
  err "   " "empty-line";
  err "{" "malformed";
  err "[1,2]" "not-an-object";
  err {|{"a":1}|} "missing-verb";
  err {|{"verb":7}|} "bad-field";
  err {|{"verb":"frob"}|} "unknown-verb";
  err {|{"verb":"predict","binary":"b"}|} "missing-field";
  err {|{"verb":"predict","binary":1,"target":"t"}|} "bad-field";
  err {|{"verb":"update-evidence","site":"fir","action":"explode"}|} "bad-field";
  err (String.make (Protocol.max_line_bytes + 1) 'x') "oversized";
  (* Error responses are closed-form and byte-stable. *)
  (match Protocol.parse {|{"verb":"frob"}|} with
  | Error e ->
    Alcotest.(check string)
      "error response golden"
      {|{"ok":false,"error":"unknown-verb","detail":"unknown verb \"frob\""}|}
      (Protocol.error_response e)
  | Ok _ -> Alcotest.fail "expected unknown-verb")

let prop_parse_total_random =
  QCheck.Test.make ~name:"serve: protocol parser is total on random lines"
    ~count:500
    (QCheck.make ~print:Fun.id QCheck.Gen.(string_size (int_range 0 200)))
    (fun line ->
      match Protocol.parse line with Ok _ -> true | Error _ -> true)

let valid_line =
  {|{"verb":"predict-batch","queries":[{"binary":"NAS/is.A@fir/mpich2-1.3-pgi","target":"india"}]}|}

let prop_parse_total_truncations =
  QCheck.Test.make
    ~name:"serve: protocol parser is total on truncated requests" ~count:200
    (QCheck.make ~print:string_of_int
       QCheck.Gen.(int_range 0 (String.length valid_line)))
    (fun len ->
      match Protocol.parse (String.sub valid_line 0 len) with
      | Ok _ | Error _ -> true)

let prop_parse_oversized =
  QCheck.Test.make ~name:"serve: oversized lines are rejected unparsed"
    ~count:20
    (QCheck.make ~print:string_of_int
       QCheck.Gen.(int_range 1 4096))
    (fun extra ->
      match
        Protocol.parse (String.make (Protocol.max_line_bytes + extra) '{')
      with
      | Error (Protocol.Oversized n) -> n = Protocol.max_line_bytes + extra
      | _ -> false)

(* -- engine ------------------------------------------------------------- *)

let test_baseline_matches_cold_pass () =
  with_engine @@ fun engine ->
  Alcotest.(check bool)
    "baseline table equals a cold full pass" true
    (Engine.crosscheck_matches engine);
  (* A resident predict answers from the table: same cell as a cold
     prediction of the same pair. *)
  let snap = Engine.snapshot engine in
  match snap.Snapshot.cells with
  | [] -> Alcotest.fail "resident world has no cells"
  | cell :: _ ->
    let line =
      handle engine
        (Protocol.Predict
           {
             Protocol.q_binary = cell.Snapshot.cl_binary;
             q_target = cell.Snapshot.cl_target;
           })
    in
    let json = parse_response line in
    Alcotest.(check bool)
      "predict mirrors the resident cell" cell.Snapshot.cl_extended
      (match member_exn "extended" json with
      | Json.Bool b -> b
      | _ -> Alcotest.fail "extended is not a bool")

(* Drift's path for one perturbation of fir on the engine's default
   world: snapshot before and after, [Invalidate.affected], re-evaluate
   the plan, and the resulting verdict flips. *)
let drift_epoch what =
  let params = { Feam_evalharness.Params.default with seed } in
  let specs = Driftrun.small_specs () in
  let benchmarks = Driftrun.small_benchmarks () in
  let sites0, binaries0 = Driftrun.build_world params specs benchmarks [] in
  let cells = Driftrun.predict_all sites0 binaries0 in
  let before =
    Driftrun.snapshot_of_world ~epoch:0 ~seed ~label:"" sites0 binaries0 ~cells
  in
  let p = { Driftrun.pe_site = "fir"; pe_what = what } in
  let sites, binaries = Driftrun.build_world params specs benchmarks [ p ] in
  let after =
    Driftrun.snapshot_of_world ~epoch:1 ~seed
      ~label:(Driftrun.perturbation_label p) sites binaries ~cells
  in
  let plan = Invalidate.affected before after in
  let reevaluated =
    Driftrun.reevaluate sites binaries plan.Invalidate.pl_affected
  in
  ( plan,
    Invalidate.flips ~before:cells
      ~after:(Invalidate.merge ~base:cells ~reevaluated) )

let flip_strings flips =
  List.map
    (fun (f : Invalidate.flip) ->
      Printf.sprintf "%s %b->%b"
        (Invalidate.cell_id_key f.Invalidate.fp_cell)
        f.Invalidate.fp_before f.Invalidate.fp_after)
    flips

let response_flip_strings json =
  match member_exn "flips" json with
  | Json.List flips ->
    List.map
      (fun f ->
        match (member_exn "cell" f, member_exn "before" f, member_exn "after" f) with
        | Json.Str cell, Json.Bool b, Json.Bool a ->
          Printf.sprintf "%s %b->%b" cell b a
        | _ -> Alcotest.fail "malformed flip object")
      flips
  | _ -> Alcotest.fail "flips is not a list"

(* Serve and drift share one diff, one reach rule and one re-evaluation
   step, so the same perturbation must read the same on both paths. *)
let check_agrees_with_drift what (plan, flips) json =
  Alcotest.(check int)
    (what ^ ": changed atoms agree with drift")
    (List.length plan.Invalidate.pl_changes)
    (int_field "changed_atoms" json);
  Alcotest.(check int)
    (what ^ ": re-evaluated cells agree with drift")
    (List.length plan.Invalidate.pl_affected)
    (int_field "cells_reevaluated" json);
  Alcotest.(check (list string))
    (what ^ ": flips agree with drift")
    (flip_strings flips) (response_flip_strings json)

let test_update_reevaluates_only_affected () =
  let drift_stale = drift_epoch Feam_evalharness.Scengen.Stale_ld_cache in
  let drift_remove =
    drift_epoch (Feam_evalharness.Scengen.Remove_lib "libm.so")
  in
  Alcotest.(check bool)
    "the stale cache flips some verdict" true (snd drift_stale <> []);
  with_engine @@ fun engine ->
  let total = Engine.resident_cells engine in
  let line =
    handle engine
      (Protocol.Update_evidence
         { ue_site = "fir"; ue_action = Protocol.Stale_ld_cache })
  in
  let json = parse_response line in
  check_agrees_with_drift "stale-ld-cache" drift_stale json;
  let reevaluated = int_field "cells_reevaluated" json in
  Alcotest.(check bool) "some cells re-evaluated" true (reevaluated > 0);
  Alcotest.(check bool)
    "strictly fewer than the whole matrix" true (reevaluated < total);
  Alcotest.(check int) "epoch bumped" 1 (Engine.epoch engine);
  Alcotest.(check bool)
    "incremental table equals a cold full pass" true
    (Engine.crosscheck_matches engine);
  (* The inverse update restores the baseline verdicts. *)
  let line =
    handle engine
      (Protocol.Update_evidence
         { ue_site = "fir"; ue_action = Protocol.Fresh_ld_cache })
  in
  let json = parse_response line in
  Alcotest.(check bool)
    "undo re-evaluates the same cells" true
    (int_field "cells_reevaluated" json = reevaluated);
  Alcotest.(check bool)
    "restored table equals a cold full pass" true
    (Engine.crosscheck_matches engine);
  (* From the restored baseline, a library removal. *)
  let line =
    handle engine
      (Protocol.Update_evidence
         { ue_site = "fir"; ue_action = Protocol.Remove_lib "libm.so" })
  in
  let json = parse_response line in
  check_agrees_with_drift "remove-lib" drift_remove json;
  Alcotest.(check bool)
    "the removal re-evaluates some cells" true
    (int_field "cells_reevaluated" json > 0);
  Alcotest.(check bool)
    "removal table equals a cold full pass" true
    (Engine.crosscheck_matches engine)

let test_inert_update_reevaluates_nothing () =
  with_engine @@ fun engine ->
  (* The ld cache is already current: marking it fresh changes no atom. *)
  let line =
    handle engine
      (Protocol.Update_evidence
         { ue_site = "fir"; ue_action = Protocol.Fresh_ld_cache })
  in
  let json = parse_response line in
  Alcotest.(check int) "no atoms changed" 0 (int_field "changed_atoms" json);
  Alcotest.(check int)
    "no cells re-evaluated" 0
    (int_field "cells_reevaluated" json);
  Alcotest.(check int) "epoch unchanged" 0 (Engine.epoch engine)

let test_register_extends_matrix () =
  with_engine @@ fun engine ->
  let before = Engine.resident_cells engine in
  let line = handle engine (Protocol.Register_site "forge") in
  let json = parse_response line in
  Alcotest.(check bool)
    "registration evaluated new cells only" true
    (int_field "cells_evaluated" json = int_field "cells_total" json - before);
  Alcotest.(check bool)
    "extended table equals a cold full pass" true
    (Engine.crosscheck_matches engine);
  let line =
    handle engine
      (Protocol.Register_binary { rb_home = "forge"; rb_benchmark = "is.A" })
  in
  let json = parse_response line in
  Alcotest.(check bool)
    "register-binary added binaries" true
    (match member_exn "added" json with
    | Json.List (_ :: _) -> true
    | _ -> false);
  Alcotest.(check bool)
    "matrix with new binaries equals a cold full pass" true
    (Engine.crosscheck_matches engine);
  (* Unknown names are typed errors, not state changes. *)
  let epoch = Engine.epoch engine in
  let line = handle engine (Protocol.Register_site "atlantis") in
  Alcotest.(check bool)
    "unknown spec is a typed error" true
    (contains ~affix:{|"error":"unknown-site-spec"|} line);
  Alcotest.(check int) "failed registration mutates nothing" epoch
    (Engine.epoch engine)

let test_snapshot_is_a_drift_epoch () =
  with_engine @@ fun engine ->
  let written = ref None in
  let line =
    Engine.handle
      ~write_file:(fun path doc -> written := Some (path, doc))
      engine
      (Protocol.Snapshot_fleet { sf_out = Some "epoch.jsonl" })
  in
  let json = parse_response line in
  match !written with
  | None -> Alcotest.fail "snapshot wrote nothing"
  | Some (path, doc) ->
    Alcotest.(check string) "out path honoured" "epoch.jsonl" path;
    (match Snapshot.of_jsonl doc with
    | Error e -> Alcotest.failf "snapshot is not a drift epoch: %s" e
    | Ok snap ->
      Alcotest.(check string)
        "response hash matches the document"
        (Snapshot.hash snap)
        (match member_exn "hash" json with
        | Json.Str h -> h
        | _ -> Alcotest.fail "hash is not a string"))

(* -- transcript replay -------------------------------------------------- *)

let transcript =
  [
    {|{"verb":"stats"}|};
    {|{"verb":"predict","binary":"nonexistent","target":"fir"}|};
    {|not json at all|};
    {|{"verb":"update-evidence","site":"fir","action":"stale-ld-cache"}|};
    {|{"verb":"crosscheck"}|};
    {|{"verb":"stats"}|};
    {|{"verb":"shutdown"}|};
    {|{"verb":"stats"}|};  (* past shutdown: must never be served *)
  ]

let replay_transcript () =
  with_engine @@ fun engine ->
  let inputs = ref transcript in
  let outputs = Buffer.create 1024 in
  let outcome =
    Daemon.with_signals @@ fun () ->
    Daemon.serve_lines engine
      ~next:(fun () ->
        match !inputs with
        | [] -> None
        | x :: rest ->
          inputs := rest;
          Some x)
      ~write:(Buffer.add_string outputs)
  in
  (outcome, Buffer.contents outputs)

let test_transcript_replay_byte_identity () =
  let outcome_a, a = replay_transcript () in
  let outcome_b, b = replay_transcript () in
  Alcotest.(check bool) "shutdown verb ended the loop" true
    outcome_a.Daemon.shutdown;
  Alcotest.(check int)
    "requests after shutdown are not served" 7 outcome_a.Daemon.served;
  Alcotest.(check int) "one parse error" 1 outcome_a.Daemon.parse_errors;
  Alcotest.(check int) "replays serve alike" outcome_a.Daemon.served
    outcome_b.Daemon.served;
  Alcotest.(check string) "transcript replays byte-for-byte" a b;
  let lines = String.split_on_char '\n' (String.trim a) in
  Alcotest.(check int) "one response line per served request" 7
    (List.length lines);
  List.iter (fun l -> ignore (parse_response l)) lines;
  Alcotest.(check bool)
    "crosscheck passed mid-transcript" true
    (contains ~affix:{|"matches":true|} a)

(* -- graceful drain ----------------------------------------------------- *)

let test_sigint_drains_and_journal_is_whole () =
  let journal = ref "" in
  Feam_flightrec.Recorder.configure ~tool:"serve-test"
    ~emit:(fun body -> journal := body)
    ();
  Fun.protect ~finally:Feam_flightrec.Recorder.disable @@ fun () ->
  with_engine @@ fun engine ->
  let inputs =
    ref [ {|{"verb":"stats"}|}; {|{"verb":"stats"}|}; {|{"verb":"stats"}|} ]
  in
  let outputs = ref [] in
  let outcome =
    Daemon.with_signals @@ fun () ->
    Daemon.serve_lines engine
      ~on_request:(fun _ ->
        (* Kill mid-request: the line is read but not yet handled.  Spin
           until the handler has run so the drain is deterministic. *)
        Unix.kill (Unix.getpid ()) Sys.sigint;
        while not (Daemon.stop_requested ()) do
          ignore (Sys.opaque_identity (ref 0))
        done)
      ~next:(fun () ->
        match !inputs with
        | [] -> None
        | x :: rest ->
          inputs := rest;
          Some x)
      ~write:(fun s -> outputs := s :: !outputs)
  in
  Alcotest.(check bool) "loop saw the interrupt" true
    outcome.Daemon.interrupted;
  Alcotest.(check int) "in-flight request drained, no more served" 1
    outcome.Daemon.served;
  Alcotest.(check int) "its response was written" 1 (List.length !outputs);
  Alcotest.(check bool)
    "the drained response is complete" true
    (contains ~affix:{|"verb":"stats"|} (List.hd !outputs));
  Alcotest.(check bool) "journal was flushed" true (!journal <> "");
  match Feam_flightrec.Journal.parse !journal with
  | Error e -> Alcotest.failf "journal is not parseable after the kill: %s" e
  | Ok j ->
    Alcotest.(check bool)
      "journal records the drained exchange" true
      (List.exists
         (fun (r : Feam_flightrec.Journal.record) ->
           r.Feam_flightrec.Journal.kind = "serve.request")
         j.Feam_flightrec.Journal.records)

(* -- metrics exposition ------------------------------------------------- *)

let test_prom_exposition_covers_serve () =
  Feam_obs.Metrics.reset ();
  with_engine @@ fun engine ->
  ignore
    (handle engine
       (Protocol.Predict { Protocol.q_binary = "x"; q_target = "y" }));
  let prom = Feam_obs.Expo.render_prom () in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("exposition lists " ^ name) true
        (contains ~affix:name prom))
    [
      "feam_serve_resident_cells";
      "feam_serve_requests_total";
      "feam_serve_cells_reevaluated_total";
      "feam_serve_query_ns";
      {|feam_serve_requests{verb="predict"}|};
    ]

let prop_label_escaping_roundtrip =
  QCheck.Test.make
    ~name:"serve: prom label escaping round-trips verb labels" ~count:300
    (QCheck.make ~print:Fun.id QCheck.Gen.(string_size (int_range 0 40)))
    (fun s ->
      Feam_obs.Expo.unescape_label (Feam_obs.Expo.escape_label s) = s)

(* Each engine owns its caches: closing one engine leaves another's
   describe memo warm, so its re-evaluation still hits. *)
let test_close_keeps_other_engines_memo () =
  let e1 = Engine.create ~seed () in
  let e2 = Engine.create ~seed () in
  Engine.close e1;
  let hits () =
    Option.value ~default:0
      (Feam_obs.Metrics.counter_value "bdc.describe_cache.hit")
  in
  let before = hits () in
  ignore
    (handle e2
       (Protocol.Update_evidence
          { ue_site = "fir"; ue_action = Protocol.Stale_ld_cache })
      : string);
  Alcotest.(check bool) "the other engine's describe memo still hits" true
    (hits () > before)

let suite =
  ( "serve",
    [
      Alcotest.test_case "protocol parse golden" `Quick test_protocol_golden;
      QCheck_alcotest.to_alcotest prop_parse_total_random;
      QCheck_alcotest.to_alcotest prop_parse_total_truncations;
      QCheck_alcotest.to_alcotest prop_parse_oversized;
      Alcotest.test_case "baseline equals a cold pass" `Quick
        test_baseline_matches_cold_pass;
      Alcotest.test_case "updates re-evaluate only affected cells" `Slow
        test_update_reevaluates_only_affected;
      Alcotest.test_case "inert updates re-evaluate nothing" `Quick
        test_inert_update_reevaluates_nothing;
      Alcotest.test_case "closing one engine keeps another's memo" `Quick
        test_close_keeps_other_engines_memo;
      Alcotest.test_case "registration extends the matrix" `Slow
        test_register_extends_matrix;
      Alcotest.test_case "snapshot dumps a drift epoch" `Quick
        test_snapshot_is_a_drift_epoch;
      Alcotest.test_case "transcript replays byte-for-byte" `Slow
        test_transcript_replay_byte_identity;
      Alcotest.test_case "SIGINT drains and the journal stays whole" `Quick
        test_sigint_drains_and_journal_is_whole;
      Alcotest.test_case "prom exposition covers serve metrics" `Quick
        test_prom_exposition_covers_serve;
      QCheck_alcotest.to_alcotest prop_label_escaping_roundtrip;
    ] )
