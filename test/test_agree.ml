(* The differential agreement harness: scenario-generator determinism
   (same seed => byte-identical corpus and byte-identical agreement
   tables), the verdict lattice, soundness scoring, disagreement
   minimization, journal replay, and the promoted reproducer fixtures
   under fixtures/. *)

open Feam_agree
module Scengen = Feam_evalharness.Scengen

(* Small corpora keep the suite fast; 50 scenarios run in well under a
   second and cover every perturbation class at its draw rate. *)
let corpus_seed = 42
let corpus_count = 50

let corpus = lazy (Harness.run_corpus ~seed:corpus_seed ~count:corpus_count ())

(* -- determinism -------------------------------------------------------- *)

let test_scengen_deterministic () =
  List.iter
    (fun index ->
      let a = Scengen.build ~seed:7 ~index () in
      let b = Scengen.build ~seed:7 ~index () in
      Alcotest.(check string)
        (Printf.sprintf "binary bytes identical for 7/%d" index)
        a.Scengen.sc_binary_bytes b.Scengen.sc_binary_bytes;
      Alcotest.(check (list string))
        (Printf.sprintf "applied perturbations identical for 7/%d" index)
        (List.map Scengen.perturbation_to_string (Scengen.applied a))
        (List.map Scengen.perturbation_to_string (Scengen.applied b)))
    [ 0; 1; 2; 3; 4 ]

let test_report_deterministic () =
  let render () =
    Harness.render_report (Harness.run_corpus ~seed:corpus_seed ~count:20 ())
  in
  Alcotest.(check string) "two runs render byte-identical tables" (render ())
    (render ())

(* Same seed/index built standalone vs. rebuilt mid-shrink: the keep
   subset must only remove its own perturbations, never shift the rest
   of the draws (the discipline the minimizer depends on). *)
let test_keep_subset_stable () =
  let full = Scengen.build ~seed:11 ~index:3 () in
  let all = List.mapi (fun i _ -> i) full.Scengen.sc_all in
  let rebuilt = Scengen.build ~seed:11 ~index:3 ~keep:all () in
  Alcotest.(check string) "keep=all rebuilds the identical binary"
    full.Scengen.sc_binary_bytes rebuilt.Scengen.sc_binary_bytes;
  Alcotest.(check (list string))
    "drawn perturbation list is keep-independent"
    (List.map Scengen.perturbation_to_string full.Scengen.sc_all)
    (List.map Scengen.perturbation_to_string
       (Scengen.build ~seed:11 ~index:3 ~keep:[] ()).Scengen.sc_all)

let prop_seed_stability =
  QCheck.Test.make ~name:"agree: corpora are a pure function of the seed"
    ~count:10
    (QCheck.make QCheck.Gen.(int_range 0 10_000))
    (fun seed ->
      let report () =
        Harness.render_report (Harness.run_corpus ~seed ~count:5 ())
      in
      String.equal (report ()) (report ()))

(* -- the verdict lattice ------------------------------------------------ *)

let test_verdict_lattice () =
  let ready = { Verdict.v_level = Verdict.Ready; v_attribution = [] } in
  Alcotest.(check bool) "ready accepts" true (Verdict.accepts ready);
  Alcotest.(check bool) "ready is strict" true (Verdict.strictly_ready ready);
  let oracle_fail =
    Verdict.of_outcome
      (Feam_dynlinker.Exec.Failure
         (Feam_dynlinker.Exec.Missing_libraries [ "libz.so.1" ]))
  in
  Alcotest.(check bool) "oracle failure rejects" false
    (Verdict.accepts oracle_fail);
  Alcotest.(check string) "failure class attributed" "missing-libraries"
    (List.hd oracle_fail.Verdict.v_attribution).Verdict.at_source;
  List.iter
    (fun p ->
      Alcotest.(check bool)
        ("predictor round-trips: " ^ Verdict.predictor_name p)
        true
        (Verdict.predictor_of_name (Verdict.predictor_name p) = Some p))
    Verdict.predictors

let test_claims () =
  let open Feam_dynlinker.Exec in
  Alcotest.(check bool) "tec claims missing libraries" true
    (Verdict.claims Verdict.Tec (Missing_libraries [ "x" ]));
  let vf =
    {
      Feam_dynlinker.Resolve.vf_object = "x";
      vf_provider = "libc.so.6";
      vf_scope_pos = None;
      vf_version = "GLIBC_2.7";
    }
  in
  Alcotest.(check bool) "symcheck claims version bindings only" true
    (Verdict.claims Verdict.Symcheck (Unsatisfied_versions [ vf ]));
  Alcotest.(check bool) "symcheck does not claim launch failures" false
    (Verdict.claims Verdict.Symcheck No_mpi_stack);
  Alcotest.(check bool) "nobody claims interconnect weather" false
    (List.exists
       (fun p -> Verdict.claims p (Interconnect_unavailable "ib0"))
       Verdict.predictors);
  Alcotest.(check bool) "oracle claims nothing" false
    (List.exists (Verdict.claims Verdict.Oracle)
       [ Missing_libraries [ "x" ]; No_mpi_stack ])

(* -- corpus content ----------------------------------------------------- *)

(* The seed corpus must actually exercise the harness: disagreements
   exist, and at least one unsound acceptance surfaces (the soundness
   channels scengen plants: foreign verneeds, rpath decoys).  These are
   properties of the fixed seed, stable by the determinism tests. *)
let test_corpus_finds_disagreements () =
  let runs = Lazy.force corpus in
  Alcotest.(check int) "corpus size" corpus_count (List.length runs);
  Alcotest.(check bool) "some scenarios disagree" true
    (List.exists Harness.disagrees runs);
  Alcotest.(check bool) "some scenarios agree" true
    (List.exists (fun r -> not (Harness.disagrees r)) runs);
  Alcotest.(check bool) "unsound acceptances surface" true
    (List.exists (fun r -> r.Harness.r_unsound <> []) runs);
  List.iter
    (fun r ->
      List.iter
        (fun p ->
          Alcotest.(check bool)
            (Printf.sprintf "unsound %s was strictly ready"
               (Verdict.predictor_name p))
            true
            (Verdict.strictly_ready (Harness.verdict_of r p));
          match r.Harness.r_failure with
          | Some f ->
            Alcotest.(check bool) "oracle failed inside the claim" true
              (Verdict.claims p f)
          | None -> Alcotest.fail "unsound scenario without oracle failure")
        r.Harness.r_unsound)
    runs

let test_metrics () =
  Feam_obs.Metrics.reset ();
  let runs = Harness.run_corpus ~seed:corpus_seed ~count:10 () in
  let counter name = Option.value ~default:0 (Feam_obs.Metrics.counter_value name) in
  Alcotest.(check int) "agree.scenarios counts the corpus" 10
    (counter "agree.scenarios");
  Alcotest.(check int) "agree.disagreements matches the runs"
    (List.length (List.filter Harness.disagrees runs))
    (counter "agree.disagreements");
  Alcotest.(check int) "agree.unsound matches the runs"
    (List.length (List.filter (fun r -> r.Harness.r_unsound <> []) runs))
    (counter "agree.unsound")

(* Each scenario's images are parsed through the handles their holders
   keep (the home file, the bundle's copies and probes, the staged
   binary), so a pass parses no image twice.  824 is the count measured
   when the process-wide parse table was replaced by handles; a holder
   that drops its handle and re-reads raw bytes pushes it up. *)
let test_parse_misses_pinned () =
  let misses () =
    Option.value ~default:0
      (Feam_obs.Metrics.counter_value "elf.parse_memo.miss")
  in
  let before = misses () in
  ignore
    (Harness.run_corpus ~seed:corpus_seed ~count:corpus_count ()
      : Harness.run list);
  let n = misses () - before in
  if n > 824 then
    Alcotest.failf "50 seed-42 scenarios parsed %d images, at most 824 expected"
      n

(* -- minimization ------------------------------------------------------- *)

let first_unsound runs =
  List.find_opt (fun r -> r.Harness.r_unsound <> []) runs

let test_minimizer_shrinks () =
  match first_unsound (Lazy.force corpus) with
  | None -> Alcotest.fail "seed corpus lost its unsound scenarios"
  | Some run ->
    let p = List.hd run.Harness.r_unsound in
    (match Minimize.shrink run p with
    | Error e -> Alcotest.fail e
    | Ok (rp, _probes) ->
      let sc = run.Harness.r_scenario in
      Alcotest.(check bool) "keep is a subset of the original" true
        (List.for_all (fun i -> List.mem i sc.Scengen.sc_keep) rp.Minimize.rp_keep);
      Alcotest.(check bool) "keep is non-empty" true (rp.Minimize.rp_keep <> []);
      (* still reproduces... *)
      (match Minimize.check rp with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      (* ...and is 1-minimal: dropping any single kept perturbation
         makes the unsoundness disappear. *)
      List.iter
        (fun i ->
          let keep = List.filter (fun j -> j <> i) rp.Minimize.rp_keep in
          if keep <> [] then begin
            let r =
              Harness.rerun ~seed:rp.Minimize.rp_seed
                ~index:rp.Minimize.rp_index ~keep
            in
            Alcotest.(check bool)
              (Printf.sprintf "dropping %d breaks the reproducer" i)
              false
              (List.mem rp.Minimize.rp_predictor r.Harness.r_unsound
              && r.Harness.r_failure
                 |> Option.map Verdict.failure_class
                 = Some rp.Minimize.rp_failure)
          end)
        rp.Minimize.rp_keep)

let test_minimize_rejects_sound () =
  let runs = Lazy.force corpus in
  match List.find_opt (fun r -> r.Harness.r_unsound = []) runs with
  | None -> Alcotest.fail "seed corpus has no sound scenario"
  | Some run -> (
    match Minimize.shrink run Verdict.Tec with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "shrinking a sound scenario must error")

let test_reproducer_round_trip () =
  let rp =
    {
      Minimize.rp_seed = 42;
      rp_index = 17;
      rp_keep = [ 0; 2 ];
      rp_predictor = Verdict.Tec;
      rp_failure = "unsatisfied-versions";
      rp_perturbations = [ "foreign-lib libz.so.1"; "strip-verneed" ];
    }
  in
  (match Minimize.of_string (Minimize.to_string rp) with
  | Ok parsed -> Alcotest.(check bool) "round-trips" true (parsed = rp)
  | Error e -> Alcotest.fail e);
  (match Minimize.of_string "not a reproducer\n" with
  | Ok _ -> Alcotest.fail "garbage must not parse"
  | Error _ -> ());
  Alcotest.(check string) "fixture filename is deterministic"
    "agree_tec_unsatisfied-versions_foreign-lib_libz-so-1+strip-verneed.agree"
    (Minimize.filename rp)

(* -- promoted fixtures -------------------------------------------------- *)

(* Every checked-in minimized reproducer must still reproduce: rebuild
   its scenario from (seed, index, keep) and re-check the recorded
   predictor is unsound for the recorded failure class. *)
let test_fixture_regressions () =
  let dir = "fixtures" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".agree")
    |> List.sort compare
  in
  Alcotest.(check bool) "fixtures are present" true (files <> []);
  List.iter
    (fun file ->
      let text =
        In_channel.with_open_text (Filename.concat dir file)
          In_channel.input_all
      in
      match Minimize.of_string text with
      | Error e -> Alcotest.fail (Printf.sprintf "%s: %s" file e)
      | Ok rp -> (
        Alcotest.(check string)
          (Printf.sprintf "%s: filename matches content" file)
          file (Minimize.filename rp);
        match Minimize.check rp with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Printf.sprintf "%s: %s" file e)))
    files

(* -- journal replay ----------------------------------------------------- *)

let test_journal_replay () =
  let (), captured =
    Test_flightrec.with_recorder (fun () ->
        Harness.record_report (Harness.run_corpus ~seed:corpus_seed ~count:5 ()))
  in
  match Feam_flightrec.Journal.parse captured with
  | Error e -> Alcotest.fail e
  | Ok journal -> (
    Alcotest.(check bool) "journal carries a corpus" true
      (Replay.has_corpus journal);
    match Replay.of_journal journal with
    | Error e -> Alcotest.fail e
    | Ok outcome ->
      Alcotest.(check int) "replay rebuilds every scenario" 5
        (List.length outcome.Replay.runs);
      Alcotest.(check bool) "replay matches byte-for-byte" true
        outcome.Replay.matches)

let test_replay_rejects_non_corpus () =
  let (), captured =
    Test_flightrec.with_recorder (fun () -> Feam_flightrec.Recorder.record "noise")
  in
  match Feam_flightrec.Journal.parse captured with
  | Error e -> Alcotest.fail e
  | Ok journal ->
    Alcotest.(check bool) "no corpus detected" false (Replay.has_corpus journal);
    (match Replay.of_journal journal with
    | Ok _ -> Alcotest.fail "non-corpus journal must not replay"
    | Error _ -> ())

(* The README calibration table is generated from the seed-42/50-scenario
   agreement corpus; re-derive it here so doc and code cannot drift. *)

(* The README's markdown form of a rendered text table: the header row,
   a separator, then one row per data line with the first cell in
   backticks. *)
let markdown_of_table text =
  let cells line =
    String.split_on_char '|' line
    |> List.map String.trim
    |> List.filter (fun c -> c <> "")
  in
  match
    List.filter (String.starts_with ~prefix:"|") (String.split_on_char '\n' text)
    |> List.map cells
  with
  | [] -> ""
  | header :: rows ->
    let row cells = "| " ^ String.concat " | " cells ^ " |\n" in
    row header
    ^ "|" ^ String.concat "" (List.map (fun _ -> "---|") header) ^ "\n"
    ^ String.concat ""
        (List.map
           (function first :: rest -> row (("`" ^ first ^ "`") :: rest) | [] -> "")
           rows)

let test_readme_calibration_in_sync () =
  let readme = In_channel.with_open_text "../README.md" In_channel.input_all in
  let runs = Feam_agree.Harness.run_corpus ~seed:42 ~count:50 () in
  let expected =
    markdown_of_table
      (Feam_util.Table.render (Feam_agree.Calibrate.table runs))
  in
  Alcotest.(check bool)
    "README contains the corpus-derived calibration table verbatim" true
    (Feam_sysmodel.Str_split.contains ~sub:expected readme);
  Alcotest.(check (list string))
    "no rule demotes on the documented corpus" []
    (Feam_agree.Calibrate.demotions runs)

let suite =
  ( "agree",
    [
      Alcotest.test_case "scengen is deterministic" `Quick
        test_scengen_deterministic;
      Alcotest.test_case "agreement tables are byte-identical" `Quick
        test_report_deterministic;
      Alcotest.test_case "keep subsets only remove their own perturbation"
        `Quick test_keep_subset_stable;
      QCheck_alcotest.to_alcotest prop_seed_stability;
      Alcotest.test_case "verdict lattice" `Quick test_verdict_lattice;
      Alcotest.test_case "predictor claims" `Quick test_claims;
      Alcotest.test_case "seed corpus surfaces disagreements" `Quick
        test_corpus_finds_disagreements;
      Alcotest.test_case "corpus metrics" `Quick test_metrics;
      Alcotest.test_case "parse misses per corpus are pinned" `Quick
        test_parse_misses_pinned;
      Alcotest.test_case "minimizer shrinks to 1-minimal" `Quick
        test_minimizer_shrinks;
      Alcotest.test_case "minimizer rejects sound scenarios" `Quick
        test_minimize_rejects_sound;
      Alcotest.test_case "reproducer serialization round-trips" `Quick
        test_reproducer_round_trip;
      Alcotest.test_case "promoted fixtures still reproduce" `Quick
        test_fixture_regressions;
      Alcotest.test_case "journal replay round-trips" `Quick
        test_journal_replay;
      Alcotest.test_case "replay rejects non-corpus journals" `Quick
        test_replay_rejects_non_corpus;
      Alcotest.test_case "README calibration table in sync" `Quick
        test_readme_calibration_in_sync;
    ] )
