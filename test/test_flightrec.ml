(* Tests for the flight recorder: the recorder's golden journal text
   and idempotent flush, journal parsing (schema gate, malformed
   input), the landmark records a real pipeline run journals, journal
   determinism across identical runs, byte-for-byte replay, graceful
   replay of a tampered journal, and cross-run diffing that pins the
   changed evidence atom and the flipped determinant. *)

open Feam_util
module Recorder = Feam_flightrec.Recorder
module Journal = Feam_flightrec.Journal
module Diff = Feam_flightrec.Diff

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* Run [f] with a journal in scope; returns (result, journal text). *)
let with_recorder f =
  let text = ref "" in
  let result = Recorder.with_journal ~tool:"test" ~emit:(( := ) text) f in
  (result, !text)

let parse_exn text =
  match Journal.parse text with
  | Ok j -> j
  | Error e -> Alcotest.failf "journal does not parse: %s" e

(* -- recorder ----------------------------------------------------------- *)

let test_recorder_golden () =
  Feam_obs.reset ();
  let emissions = ref [] in
  Recorder.with_journal ~tool:"t" ~emit:(fun b -> emissions := b :: !emissions)
  @@ fun () ->
  Recorder.evidence ~stage:"s" ~kind:"k" (fun () -> [ ("x", Json.Int 1) ]);
  Recorder.decision ~determinant:"d" ~verdict:"pass" (fun () ->
      [ ("y", Json.Str "z") ]);
  Recorder.payload ~kind:"p" (fun () -> Json.Str "body");
  Recorder.flush ();
  Recorder.flush ();
  Alcotest.(check int)
    "second flush with no new records emits nothing" 1
    (List.length !emissions);
  let golden =
    "{\"type\":\"journal\",\"schema\":1,\"tool\":\"t\"}\n"
    ^ "{\"type\":\"evidence\",\"seq\":1,\"span\":null,\"stage\":\"s\",\
       \"kind\":\"k\",\"x\":1}\n"
    ^ "{\"type\":\"decision\",\"seq\":2,\"span\":null,\"determinant\":\"d\",\
       \"verdict\":\"pass\",\"evidence\":{\"y\":\"z\"}}\n"
    ^ "{\"type\":\"payload\",\"seq\":3,\"span\":null,\"kind\":\"p\",\
       \"data\":\"body\"}\n"
  in
  Alcotest.(check string) "rendered journal" golden (List.hd !emissions);
  (* metrics ride along: per-type record counters + size gauge *)
  Alcotest.(check (option int))
    "evidence records counted" (Some 1)
    (Feam_obs.Metrics.counter_value
       ~labels:[ ("type", "evidence") ]
       "flightrec.records");
  (* a record after a flush makes the next flush emit again *)
  Recorder.record "extra";
  Recorder.flush ();
  Alcotest.(check int)
    "Recorder.flush emits the new record" 2
    (List.length !emissions);
  Feam_obs.reset ()

let test_disabled_recorder_is_silent () =
  Feam_obs.reset ();
  Alcotest.(check bool) "off by default" false (Recorder.enabled ());
  (* a disabled recorder builds nothing: no field thunk runs *)
  let built () = Alcotest.fail "fields built while disabled" in
  Recorder.evidence ~stage:"s" ~kind:"k" built;
  Recorder.decision ~determinant:"d" ~verdict:"pass" built;
  Recorder.payload ~kind:"p" built;
  Recorder.record "r" ~fields:built;
  Recorder.flush ();
  (* with a tape and a clock open but no journal, the test for one
     allocates nothing *)
  let clock = Feam_util.Sim_clock.create () in
  let (), events =
    Feam_util.Effects.capture @@ fun () ->
    Feam_util.Effects.with_clock clock @@ fun () ->
    let before = Gc.minor_words () in
    for _ = 1 to 1000 do
      ignore (Recorder.enabled () : bool)
    done;
    Alcotest.(check (float 0.0))
      "enabled allocates nothing" 0.0 (Gc.minor_words () -. before);
    Recorder.record "r" ~fields:built
  in
  Alcotest.(check int) "no record reaches the tape" 0 (List.length events);
  Alcotest.(check (option int))
    "no metrics recorded while disabled" None
    (Feam_obs.Metrics.counter_value
       ~labels:[ ("type", "evidence") ]
       "flightrec.records")

(* -- journal parsing ----------------------------------------------------- *)

let test_parse_rejects_bad_input () =
  let reject label text =
    match Journal.parse text with
    | Ok _ -> Alcotest.failf "%s unexpectedly parsed" label
    | Error _ -> ()
  in
  reject "empty input" "";
  reject "non-journal document" "{\"type\":\"span\",\"id\":1}\n";
  reject "garbage" "not json\n";
  reject "journal from the future"
    (Printf.sprintf "{\"type\":\"journal\",\"schema\":%d,\"tool\":\"t\"}\n"
       (Recorder.schema_version + 1));
  reject "malformed record line"
    "{\"type\":\"journal\",\"schema\":1,\"tool\":\"t\"}\n{oops\n"

let test_parse_roundtrip () =
  Feam_obs.reset ();
  let (), text =
    with_recorder (fun () ->
        Recorder.evidence ~stage:"s" ~kind:"k" (fun () -> [ ("x", Json.Int 1) ]);
        Recorder.record "custom" ~fields:(fun () -> [ ("f", Json.Bool true) ]))
  in
  let j = parse_exn text in
  Alcotest.(check int) "schema" Recorder.schema_version j.Journal.schema;
  Alcotest.(check string) "tool" "test" j.Journal.tool;
  Alcotest.(check int) "two records" 2 (List.length j.Journal.records);
  (match List.nth_opt (Journal.find_all ~kind:"custom" j) 0 with
  | Some r ->
    Alcotest.(check int) "seq stamped" 2 r.Journal.seq;
    Alcotest.(check (option bool))
      "unknown record types are preserved with their fields" (Some true)
      (Option.bind (Journal.field "f" r) Json.to_bool_opt)
  | None -> Alcotest.fail "custom record lost");
  Feam_obs.reset ()

(* -- the pipeline's journal ---------------------------------------------- *)

(* Source phase + extended target phase over two fixture sites — the
   same work `feam predict --journal` records.  One system library is
   deleted from the target so the resolution model does real work (and
   journals its decision). *)
let run_pipeline ?(target_glibc = "2.5") () =
  let home, home_installs = Fixtures.small_site ~name:"fr-home" () in
  let target, _ = Fixtures.small_site ~name:"fr-target" ~glibc:target_glibc () in
  Feam_sysmodel.Vfs.remove (Feam_sysmodel.Site.vfs target) "/lib64/libnsl.so.1";
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

let journaled_run ?target_glibc () =
  let report, text = with_recorder (run_pipeline ?target_glibc) in
  (report, parse_exn text)

let test_pipeline_journal_landmarks () =
  Feam_obs.reset ();
  let report, j = journaled_run () in
  Alcotest.(check bool)
    "pipeline predicted ready" true
    (Feam_core.Predict.is_ready (Feam_core.Report.prediction report));
  (* evidence from every gathering stage *)
  let stages =
    List.filter_map (Journal.str_field "stage") (Journal.find_all ~kind:"evidence" j)
  in
  List.iter
    (fun stage ->
      Alcotest.(check bool)
        (Printf.sprintf "evidence from stage %s" stage)
        true (List.mem stage stages))
    [ "bdc"; "edc"; "probe"; "dynlinker" ];
  (* a decision per determinant, plus resolution and the final verdict *)
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (Printf.sprintf "decision for %s" d)
        true
        (Journal.last_decision ~determinant:d j <> None))
    [ "isa"; "glibc"; "mpi_stack"; "shared_libraries"; "resolve"; "predict" ];
  (* the payloads replay rebuilds the run from *)
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        (Printf.sprintf "%s payload present" kind)
        true
        (Journal.payload ~kind j <> None))
    [ "config"; "description"; "discovery" ];
  (* run + phase + report bookkeeping *)
  Alcotest.(check bool) "run record" true (List.nth_opt (Journal.find_all ~kind:"run" j) 0 <> None);
  Alcotest.(check int) "two phase records" 2
    (List.length (Journal.find_all ~kind:"phase" j));
  match Journal.last ~kind:"report" j with
  | None -> Alcotest.fail "no report record"
  | Some r ->
    Alcotest.(check (option string))
      "report names the target site" (Some "fr-target")
      (Journal.str_field "site" r);
    Alcotest.(check bool) "report text recorded" true
      (Journal.str_field "text" r <> None)

let test_identical_runs_journal_identically () =
  Feam_obs.reset ();
  let _, text_a = with_recorder (fun () -> run_pipeline ()) in
  let _, text_b = with_recorder (fun () -> run_pipeline ()) in
  Alcotest.(check string) "byte-identical journals" text_a text_b;
  let d = Result.get_ok (Diff.of_strings ~a:text_a ~b:text_b) in
  Alcotest.(check bool) "diff of identical runs is empty" true (Diff.is_empty d);
  Alcotest.(check string)
    "and says so" "journal diff: no differences\n" (Diff.render_text d)

(* -- replay -------------------------------------------------------------- *)

let test_replay_reproduces_report () =
  Feam_obs.reset ();
  let report, j = journaled_run () in
  match Feam_core.Replay.of_journal j with
  | Error e -> Alcotest.failf "replay failed: %s" e
  | Ok outcome ->
    Alcotest.(check bool)
      "replay matches the recorded report byte-for-byte" true
      outcome.Feam_core.Replay.matches;
    Alcotest.(check string)
      "replayed text equals the live render"
      (Feam_core.Report.render report)
      outcome.Feam_core.Replay.rendered

let test_replay_not_ready_run () =
  Feam_obs.reset ();
  (* an ancient target C library: the live run is not ready, and replay
     must reproduce that report too *)
  let report, j = journaled_run ~target_glibc:"2.0" () in
  Alcotest.(check bool)
    "live run not ready" false
    (Feam_core.Predict.is_ready (Feam_core.Report.prediction report));
  match Feam_core.Replay.of_journal j with
  | Error e -> Alcotest.failf "replay failed: %s" e
  | Ok outcome ->
    Alcotest.(check bool)
      "not-ready replay still matches byte-for-byte" true
      outcome.Feam_core.Replay.matches

let test_replay_tampered_journal () =
  Feam_obs.reset ();
  let _, j = journaled_run () in
  (* flip the recorded MPI-stack outcome: no probe succeeded *)
  let tampered_records =
    List.map
      (fun (r : Journal.record) ->
        if
          r.Journal.kind = "decision"
          && Journal.str_field "determinant" r = Some "mpi_stack"
        then
          {
            r with
            Journal.fields =
              [
                ("determinant", Json.Str "mpi_stack");
                ("verdict", Json.Str "fail");
                ( "evidence",
                  Json.Obj
                    [ ("functioning", Json.Null); ("probe_failures", Json.List []) ]
                );
              ];
          }
        else r)
      j.Journal.records
  in
  let tampered = { j with Journal.records = tampered_records } in
  match Feam_core.Replay.of_journal tampered with
  | Error e -> Alcotest.failf "tampered replay should still run: %s" e
  | Ok outcome ->
    Alcotest.(check bool)
      "tampered evidence flips the replayed verdict" false
      (Feam_core.Predict.is_ready
         (Feam_core.Report.prediction outcome.Feam_core.Replay.report));
    Alcotest.(check bool)
      "and no longer matches the recorded text" false
      outcome.Feam_core.Replay.matches

let test_replay_requires_payloads () =
  Feam_obs.reset ();
  let _, j = journaled_run () in
  let without_description =
    {
      j with
      Journal.records =
        List.filter
          (fun (r : Journal.record) ->
            not
              (r.Journal.kind = "payload"
              && Journal.str_field "kind" r = Some "description"))
          j.Journal.records;
    }
  in
  match Feam_core.Replay.of_journal without_description with
  | Ok _ -> Alcotest.fail "replay without a description payload should error"
  | Error e ->
    Alcotest.(check bool)
      "error names the missing payload" true
      (contains ~affix:"description" e)

(* -- diff ---------------------------------------------------------------- *)

let test_diff_pins_changed_fact_and_flip () =
  Feam_obs.reset ();
  let _, a = with_recorder (run_pipeline ?target_glibc:None) in
  let _, b = with_recorder (run_pipeline ~target_glibc:"2.0") in
  let d = Result.get_ok (Diff.of_strings ~a ~b) in
  Alcotest.(check bool) "runs differ" false (Diff.is_empty d);
  Alcotest.(check bool) "overall verdict flipped" true
    (d.Diff.report_a <> d.Diff.report_b);
  (* the changed environment fact is pinned by name and both values *)
  (match
     List.find_opt (fun c -> c.Diff.path = "glibc") d.Diff.discovery_changes
   with
  | None -> Alcotest.fail "diff does not pin the discovery glibc atom"
  | Some c ->
    Alcotest.(check (option string)) "old value" (Some "2.5") c.Diff.a;
    Alcotest.(check (option string)) "new value" (Some "2.0") c.Diff.b);
  (* ...and the determinant it flipped *)
  (match
     List.find_opt
       (fun dd -> dd.Diff.dd_determinant = "glibc")
       d.Diff.determinants
   with
  | None -> Alcotest.fail "glibc determinant not in the diff"
  | Some dd ->
    Alcotest.(check bool) "glibc determinant flipped" true dd.Diff.dd_flipped;
    Alcotest.(check (option string))
      "verdict a" (Some "pass") dd.Diff.dd_verdict_a;
    Alcotest.(check (option string))
      "verdict b" (Some "fail") dd.Diff.dd_verdict_b);
  (* the text rendering names fact and flip *)
  let text = Diff.render_text d in
  List.iter
    (fun affix ->
      Alcotest.(check bool)
        (Printf.sprintf "text contains %S" affix)
        true
        (contains ~affix text))
    [ "glibc: 2.5 -> 2.0"; "determinant glibc: pass -> fail  [FLIPPED]";
      "verdict: ready -> not ready  [FLIPPED]" ];
  (* and so does the JSON *)
  let json = Diff.to_json d in
  Alcotest.(check (option bool))
    "json identical:false" (Some false)
    (Option.bind (Json.member "identical" json) Json.to_bool_opt);
  Alcotest.(check (option bool))
    "json verdict.flipped" (Some true)
    Option.(
      bind
        (bind (Json.member "verdict" json) (Json.member "flipped"))
        Json.to_bool_opt)

(* -- diff hardening: of_strings, ordering invariance, typed errors ------- *)

let test_diff_of_strings_identical () =
  Feam_obs.reset ();
  let _, text = with_recorder (fun () -> run_pipeline ()) in
  match Diff.of_strings ~a:text ~b:text with
  | Error e ->
    Alcotest.failf "identical journals: %s" (Diff.journal_error_to_string e)
  | Ok d ->
    Alcotest.(check bool)
      "identical journals reduce to the explicitly-empty diff" true
      (Diff.is_empty d);
    Alcotest.(check string)
      "and render the no-difference notice"
      "journal diff: no differences\n" (Diff.render_text d)

(* The description changes between two minimal journals whose
   description payloads carry the given atoms, in the given order. *)
let description_diff a b =
  let journal atoms =
    {|{"type":"journal","schema":1,"tool":"test"}|} ^ "\n"
    ^ Json.render
        (Json.Obj
           [
             ("type", Json.Str "payload");
             ("seq", Json.Int 1);
             ("span", Json.Null);
             ("kind", Json.Str "description");
             ("data", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) atoms));
           ])
    ^ "\n"
  in
  match Diff.of_strings ~a:(journal a) ~b:(journal b) with
  | Ok d -> d.Diff.description_changes
  | Error e -> Alcotest.fail (Diff.journal_error_to_string e)

let test_diff_atoms_order_invariance () =
  let a = [ ("x", "1"); ("y", "2"); ("z", "3") ] in
  let b = [ ("y", "2"); ("z", "9"); ("w", "4") ] in
  let d = description_diff a b in
  Alcotest.(check bool)
    "atom order on either side never affects the diff" true
    (d = description_diff (List.rev a) (List.rev b));
  Alcotest.(check (list string))
    "output is path-sorted" [ "w"; "x"; "z" ]
    (List.map (fun c -> c.Diff.path) d)

let test_diff_of_strings_truncated () =
  Feam_obs.reset ();
  let _, text = with_recorder (fun () -> run_pipeline ()) in
  let truncated = String.sub text 0 (String.length text - 2) in
  match Diff.of_strings ~a:text ~b:truncated with
  | Ok _ -> Alcotest.fail "a truncated journal body should not diff"
  | Error e ->
    Alcotest.(check bool) "the error blames side B" true (e.Diff.je_side = `B);
    Alcotest.(check bool)
      "and its rendering names the journal" true
      (contains ~affix:"journal B" (Diff.journal_error_to_string e))

let test_diff_of_strings_schema_mismatch () =
  Feam_obs.reset ();
  let _, text = with_recorder (fun () -> run_pipeline ()) in
  let body =
    match String.index_opt text '\n' with
    | None -> Alcotest.fail "journal has no header line"
    | Some i -> String.sub text i (String.length text - i)
  in
  let bumped =
    "{\"type\":\"journal\",\"schema\":99,\"tool\":\"test\"}" ^ body
  in
  match Diff.of_strings ~a:bumped ~b:text with
  | Ok _ -> Alcotest.fail "a newer-schema journal should not diff"
  | Error e ->
    Alcotest.(check bool) "the error blames side A" true (e.Diff.je_side = `A);
    Alcotest.(check bool)
      "and names the schema" true
      (contains ~affix:"schema" e.Diff.je_reason)

(* -- evalharness cell journals ------------------------------------------- *)

let test_matrix_cell_journal_replays () =
  Feam_obs.reset ();
  let params = Feam_evalharness.Params.default in
  let sites = Feam_evalharness.Sites.build_all params in
  let binaries =
    Feam_evalharness.Testset.build params sites [ List.hd Feam_suites.Npb.all ]
  in
  let binary = List.hd binaries in
  let target =
    match
      List.find_opt
        (fun s ->
          Feam_sysmodel.Site.name s
          <> Feam_sysmodel.Site.name binary.Feam_evalharness.Testset.home
          && Feam_evalharness.Migrate.has_matching_impl binary s)
        sites
    with
    | Some s -> s
    | None -> Alcotest.fail "no matching target site in the eval world"
  in
  let written = ref [] in
  let write ~name body = written := (name, body) :: !written in
  let name = Feam_evalharness.Journals.journal_cell ~write binary target in
  Alcotest.(check bool)
    "writer received the named journal" true
    (List.mem_assoc name !written);
  let j = parse_exn (List.assoc name !written) in
  Alcotest.(check string) "journaled by evaltool" "evaltool" j.Journal.tool;
  match Feam_core.Replay.of_journal j with
  | Error e -> Alcotest.failf "cell replay failed: %s" e
  | Ok outcome ->
    Alcotest.(check bool)
      "matrix cell replays byte-for-byte" true
      outcome.Feam_core.Replay.matches

(* -- journals are scopes ---------------------------------------------- *)

(* The journal of [kinds] recorded, in order, in a scope of their own. *)
let journal_of kinds = snd (with_recorder (fun () -> List.iter Recorder.record kinds))

let gen_kinds = QCheck.Gen.(list_size (int_range 0 12) (oneofl [ "a"; "b"; "c" ]))

(* (a) A body that raises still emits what it recorded, its exception
   surfaces, and no journal is in scope afterwards. *)
let prop_raising_body_emits =
  QCheck.Test.make ~name:"journal scope: a raising body emits what it recorded"
    ~count:100
    (QCheck.make ~print:(String.concat " ") gen_kinds)
    (fun kinds ->
      let text = ref "" in
      let raised =
        match
          Recorder.with_journal ~tool:"test" ~emit:(( := ) text) (fun () ->
              List.iter Recorder.record kinds;
              raise Exit)
        with
        | () -> false
        | exception Exit -> true
      in
      raised && (not (Recorder.enabled ())) && String.equal !text (journal_of kinds))

(* (b) Nested scopes: the inner journal holds exactly the records made
   inside it, and the outer one the rest, numbered as if the inner
   scope had made none.  A tape open between them sees every record. *)
let prop_nested_journals_split =
  QCheck.Test.make ~name:"journal scope: the innermost journal takes each record"
    ~count:100
    (QCheck.make
       ~print:(fun (b, i, a) -> String.concat " | " (List.map (String.concat " ") [ b; i; a ]))
       QCheck.Gen.(triple gen_kinds gen_kinds gen_kinds))
    (fun (before, inside, after) ->
      let inner = ref "" in
      let ((), taped), outer =
        with_recorder (fun () ->
            List.iter Recorder.record before;
            let r =
              Feam_util.Effects.capture (fun () ->
                  Recorder.with_journal ~tool:"test" ~emit:(( := ) inner) (fun () ->
                      List.iter Recorder.record inside))
            in
            List.iter Recorder.record after;
            r)
      in
      String.equal !inner (journal_of inside)
      && String.equal outer (journal_of (before @ after))
      && List.length taped = List.length inside)

(* (c) Two journaled passes, each over its own small world and context,
   run interleaved cell by cell: each pass writes the journals it
   writes alone. *)
let test_interleaved_passes_journal_alone () =
  let open Feam_evalharness in
  let pass seed =
    let params = { Params.default with Params.seed } in
    let sites, binaries =
      Driftrun.build_world params (Driftrun.small_specs ())
        (Driftrun.small_benchmarks ()) []
    in
    let ctx = Feam_core.Eval_ctx.create () in
    let written = ref [] in
    let write ~name body = written := (name, body) :: !written in
    ( List.map
        (fun (b, t) () -> ignore (Journals.journal_cell ~ctx ~write b t : string))
        (Migrate.cells sites binaries),
      written )
  in
  let alone seed =
    let cells, written = pass seed in
    List.iter (fun cell -> cell ()) cells;
    List.rev !written
  in
  let rec interleave = function
    | [], rest | rest, [] -> List.iter (fun cell -> cell ()) rest
    | a :: r1, b :: r2 -> a (); b (); interleave (r1, r2)
  in
  let a, written_a = pass 42 and b, written_b = pass 7 in
  Alcotest.(check bool) "each pass has several cells" true
    (List.length a > 1 && List.length b > 1);
  interleave (a, b);
  let check seed written =
    Alcotest.(check (list (pair string string)))
      (Printf.sprintf "seed %d interleaved journals as alone" seed)
      (alone seed) (List.rev !written)
  in
  check 42 written_a;
  check 7 written_b;
  Alcotest.(check bool) "the passes journal differently" false
    (List.rev !written_a = List.rev !written_b)

let suite =
  ( "flightrec",
    [
      Alcotest.test_case "recorder golden + idempotent flush" `Quick
        test_recorder_golden;
      Alcotest.test_case "disabled recorder is silent" `Quick
        test_disabled_recorder_is_silent;
      Alcotest.test_case "parse rejects bad input" `Quick
        test_parse_rejects_bad_input;
      Alcotest.test_case "parse roundtrip" `Quick test_parse_roundtrip;
      Alcotest.test_case "pipeline journal landmarks" `Quick
        test_pipeline_journal_landmarks;
      Alcotest.test_case "identical runs journal identically" `Quick
        test_identical_runs_journal_identically;
      Alcotest.test_case "replay reproduces the report" `Quick
        test_replay_reproduces_report;
      Alcotest.test_case "replay of a not-ready run" `Quick
        test_replay_not_ready_run;
      Alcotest.test_case "tampered journal replays gracefully" `Quick
        test_replay_tampered_journal;
      Alcotest.test_case "replay requires the payloads" `Quick
        test_replay_requires_payloads;
      Alcotest.test_case "diff pins the changed fact and flip" `Quick
        test_diff_pins_changed_fact_and_flip;
      Alcotest.test_case "diff of identical journal bodies is empty" `Quick
        test_diff_of_strings_identical;
      Alcotest.test_case "diff_atoms is atom-order invariant" `Quick
        test_diff_atoms_order_invariance;
      Alcotest.test_case "truncated journal body is a typed error" `Quick
        test_diff_of_strings_truncated;
      Alcotest.test_case "newer-schema journal body is a typed error" `Quick
        test_diff_of_strings_schema_mismatch;
      Alcotest.test_case "matrix cell journal replays" `Quick
        test_matrix_cell_journal_replays;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |])
        prop_raising_body_emits;
      QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 42 |])
        prop_nested_journals_split;
      Alcotest.test_case "interleaved journal_cell passes journal as alone" `Quick
        test_interleaved_passes_journal_alone;
    ] )
