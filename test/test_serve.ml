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

(* The protocol's request-line limit: 64 KiB. *)
let max_line_bytes = 1 lsl 16

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let seed = Feam_evalharness.Params.default.Feam_evalharness.Params.seed

let with_engine f = f (Engine.create ~seed ())

let handle = Engine.handle ~write_file:(fun _ _ -> ())

let response_field engine req name =
  match Json.parse (handle engine req) with
  | Ok r -> Json.member name r
  | Error e -> Alcotest.fail e

(* Byte-identity of the resident table with a cold full pass, as the
   crosscheck verb answers it. *)
let crosscheck_matches engine =
  response_field engine Protocol.Crosscheck "matches" = Some (Json.Bool true)

(* The engine's mutation count, as the stats verb answers it. *)
let epoch engine =
  match Option.bind (response_field engine Protocol.Stats "epoch") Json.to_int_opt with
  | Some n -> n
  | None -> Alcotest.fail "stats carries no epoch"

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
  err (String.make (max_line_bytes + 1) 'x') "oversized";
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
        Protocol.parse (String.make (max_line_bytes + extra) '{')
      with
      | Error (Protocol.Oversized n) -> n = max_line_bytes + extra
      | _ -> false)

(* -- engine ------------------------------------------------------------- *)

let test_baseline_matches_cold_pass () =
  with_engine @@ fun engine ->
  Alcotest.(check bool)
    "baseline table equals a cold full pass" true
    (crosscheck_matches engine);
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
  Alcotest.(check int) "epoch bumped" 1 (epoch engine);
  Alcotest.(check bool)
    "incremental table equals a cold full pass" true
    (crosscheck_matches engine);
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
    (crosscheck_matches engine);
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
    (crosscheck_matches engine)

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
  Alcotest.(check int) "epoch unchanged" 0 (epoch engine)

let counter name =
  Option.value ~default:0 (Feam_obs.Metrics.counter_value name)

(* The lifetime memo keys an entry on its site's state, so a site that
   returns to a state it was in serves from the memo.  fir goes stale ->
   fresh -> stale -> fresh: the first stale state misses, and the third
   and fourth toggles repeat states seen since fir's last file change
   and miss nothing.  A library removal moves fir's file system, so the
   same toggles after it miss again: the flag repeats, the site does
   not.  Every step crosschecks against a cold pass. *)
let test_memo_serves_a_repeated_state () =
  with_engine @@ fun engine ->
  let update what action =
    let stack = counter "tec.stack_memo.miss"
    and source = counter "phases.source_memo.miss" in
    ignore
      (handle engine
         (Protocol.Update_evidence { ue_site = "fir"; ue_action = action })
        : string);
    let misses =
      ( counter "tec.stack_memo.miss" - stack,
        counter "phases.source_memo.miss" - source )
    in
    Alcotest.(check bool)
      (what ^ ": incremental table equals a cold full pass") true
      (crosscheck_matches engine);
    misses
  in
  let toggles what =
    List.mapi
      (fun i action -> update (Printf.sprintf "%s toggle %d" what (i + 1)) action)
      Protocol.[ Stale_ld_cache; Fresh_ld_cache; Stale_ld_cache; Fresh_ld_cache ]
  in
  let misses = Alcotest.(pair int int) in
  let check_toggles what = function
    | [ (_, first); _; third; fourth ] ->
      Alcotest.(check bool)
        (what ^ ": the first stale state reruns fir's source phases") true
        (first > 0);
      Alcotest.(check misses) (what ^ ": the third toggle misses nothing")
        (0, 0) third;
      Alcotest.(check misses) (what ^ ": the fourth toggle misses nothing")
        (0, 0) fourth
    | _ -> assert false
  in
  check_toggles "before the removal" (toggles "before the removal");
  let _, removal = update "remove-lib" (Protocol.Remove_lib "libm.so") in
  Alcotest.(check bool) "the removal reruns fir's source phases" true
    (removal > 0);
  check_toggles "after the removal" (toggles "after the removal")

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
    (crosscheck_matches engine);
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
    (crosscheck_matches engine);
  (* Unknown names are typed errors, not state changes. *)
  let epoch0 = epoch engine in
  let line = handle engine (Protocol.Register_site "atlantis") in
  Alcotest.(check bool)
    "unknown spec is a typed error" true
    (contains ~affix:{|"error":"unknown-site-spec"|} line);
  Alcotest.(check int) "failed registration mutates nothing" epoch0
    (epoch engine)

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

(* The crosscheck is the one check on resident evidence: a file written
   into a resident site's library directory behind the engine's back
   changes no verdict, but a cold capture inventories it, so the
   resident snapshot no longer matches. *)
let test_crosscheck_sees_unrecaptured_evidence () =
  with_engine @@ fun engine ->
  Alcotest.(check bool) "the baseline matches" true (crosscheck_matches engine);
  let site = List.hd (Engine.sites engine) in
  let dir = List.hd (Feam_sysmodel.Site.default_lib_dirs site) in
  Feam_sysmodel.Vfs.add (Feam_sysmodel.Site.vfs site) (dir ^ "/README.txt")
    (Feam_sysmodel.Vfs.Text "not a library\n");
  Alcotest.(check bool) "an unrecaptured file does not match" false
    (crosscheck_matches engine)

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

let serve_transcript lines =
  with_engine @@ fun engine ->
  let inputs = ref lines in
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
  let outcome_a, a = serve_transcript transcript in
  let outcome_b, b = serve_transcript transcript in
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

(* -- the lifetime memo ---------------------------------------------------- *)

(* A seeded transcript of 48 requests that change or read the fleet,
   each followed by a crosscheck: ld-cache toggles on every resident
   site (some of them inert), two removals of libraries that home
   binaries ship, a site registration, two binary registrations (the
   first compiles into a site whose memo entries are warm) and three
   snapshots. *)
let memo_transcript () =
  let rng = Feam_util.Prng.create 23 in
  let sites = ref [ "fir"; "india" ] in
  let update ?(site = Feam_util.Prng.pick rng !sites) action extra =
    Printf.sprintf
      {|{"verb":"update-evidence","site":"%s","action":"%s"%s}|}
      site action extra
  in
  let remove site lib = update ~site "remove-lib" ({|,"lib":"|} ^ lib ^ {|"|}) in
  let request = function
    | 10 ->
      sites := !sites @ [ "forge" ];
      {|{"verb":"register-site","site":"forge"}|}
    | 18 -> {|{"verb":"register-binary","home":"fir","benchmark":"cg.A"}|}
    | 30 -> {|{"verb":"register-binary","home":"forge","benchmark":"is.A"}|}
    | 14 -> remove "fir" "libimf.so"
    | 34 -> remove "india" "libgfortran.so.1"
    | 7 | 25 | 43 -> {|{"verb":"snapshot"}|}
    | _ ->
      update
        (if Feam_util.Prng.bool rng 0.5 then "stale-ld-cache"
         else "fresh-ld-cache")
        ""
  in
  let lines = ref [] in
  for i = 0 to 47 do
    lines := {|{"verb":"crosscheck"}|} :: request i :: !lines
  done;
  List.rev_append !lines [ {|{"verb":"stats"}|}; {|{"verb":"shutdown"}|} ]

(* The transcript through the daemon loop as `feam serve --journal`
   runs it: the responses, the journal's size and digest, and every
   counter outside the [*.hit] / [*.miss] / [*.saved_bytes] families,
   which count cache lookups and what their hits saved, and so depend
   on how long an entry lives. *)
let memo_transcript_record () =
  Feam_obs.Metrics.reset ();
  let journal = ref "" in
  Feam_flightrec.Recorder.with_journal ~tool:"serve-test" ~emit:(( := ) journal)
  @@ fun () ->
  let _, responses = serve_transcript (memo_transcript ()) in
  let counters =
    List.filter_map
      (fun (key, (e : Feam_obs.Metrics.entry)) ->
        match e.Feam_obs.Metrics.metric with
        | Feam_obs.Metrics.Counter n
          when not
                 (List.exists
                    (fun suffix ->
                      String.ends_with ~suffix e.Feam_obs.Metrics.name)
                    [ ".hit"; ".miss"; ".saved_bytes" ]) ->
          Some (Printf.sprintf "%s %d\n" key !n)
        | _ -> None)
      (Feam_obs.Metrics.snapshot ())
  in
  String.concat ""
    ([ "responses\n"; responses ]
    @ [
        Printf.sprintf "journal %d %s\n" (String.length !journal)
          (Digest.to_hex (Digest.string !journal));
        "counters\n";
      ]
    @ counters)

let memo_fixture = "fixtures/serve_lifetime_memo.expected"

(* The engine keeps one evaluation context for its lifetime, so an
   update reruns only the changed site's source phases.  Everything a
   client or an operator sees must be as it was when every request
   made a fresh pass: the fixture was recorded that way. *)
let test_lifetime_memo_matches_fresh_passes () =
  let got = memo_transcript_record () in
  let expected = In_channel.with_open_bin memo_fixture In_channel.input_all in
  let lines = String.split_on_char '\n' got in
  let count affix = List.length (List.filter (contains ~affix) lines) in
  Alcotest.(check int)
    "every mutation is crosschecked" 48
    (count {|"verb":"crosscheck"|});
  Alcotest.(check int)
    "every crosscheck matches a cold pass" 48
    (count {|"matches":true|});
  Alcotest.(check string)
    "responses, journal and counters as with a pass per request" expected
    got

(* -- build identity ------------------------------------------------------ *)

let request line =
  match Protocol.parse line with
  | Ok req -> req
  | Error e -> Alcotest.failf "%s: %s" line (Protocol.error_code e)

(* The resident world's provenance records: its probes' and the rest. *)
let provenance engine =
  List.partition
    (fun p -> p.Feam_sysmodel.Provenance.is_probe)
    Feam_sysmodel.(Build_world.provenance (Site.world (List.hd (Engine.sites engine))))

(* The last .comment of every ELF file at every resident site that
   carries a build ID and is not a probe, with where it lives. *)
let build_ids engine =
  let open Feam_sysmodel in
  List.concat_map
    (fun site ->
      let vfs = Site.vfs site in
      List.filter_map
        (fun path ->
          match Vfs.resolve_image vfs path with
          | Some (real, image) when real = path -> (
            match Feam_elf.Reader.parse_image image with
            | Ok parsed -> (
              let probe =
                match Build_world.find (Site.world site) (Feam_elf.Reader.image_digest image) with
                | Some p -> p.Provenance.is_probe
                | None -> false
              in
              match List.rev (Feam_elf.Reader.spec parsed).Feam_elf.Spec.comments with
              | id :: _ when (not probe) && String.starts_with ~prefix:"GNU Build ID: " id ->
                Some (id, Site.name site ^ ":" ^ path)
              | _ -> None)
            | Error _ -> None)
          | _ -> None)
        (Vfs.find_under vfs "/" (fun _ -> true)))
    (Engine.sites engine)

(* A registered site joins the resident world: its builds and the
   binaries registered after it take serials no earlier build took. *)
let test_registered_site_joins_the_world () =
  with_engine @@ fun engine ->
  List.iter
    (fun line -> ignore (handle engine (request line)))
    [ {|{"verb":"register-site","site":"forge"}|};
      {|{"verb":"register-binary","home":"fir","benchmark":"cg.A"}|};
      {|{"verb":"register-binary","home":"forge","benchmark":"is.A"}|};
      {|{"verb":"crosscheck"}|} ];
  let ids = build_ids engine in
  Alcotest.(check bool) "the resident sites hold built images" true (List.length ids > 100);
  let sorted = List.sort compare ids in
  List.iteri
    (fun i (id, where) ->
      match List.nth_opt sorted (i + 1) with
      | Some (id', where') when id = id' ->
        Alcotest.failf "%s and %s carry one build ID: %s" where where' id
      | _ -> ())
    sorted

(* Reads change nothing: inserting predict, crosscheck, snapshot or
   stats anywhere in a transcript that registers a binary and later
   snapshots the fleet leaves every other response as it was. *)
let test_reads_leave_answers_alone () =
  let base =
    [ {|{"verb":"update-evidence","site":"fir","action":"stale-ld-cache"}|};
      {|{"verb":"register-binary","home":"fir","benchmark":"cg.A"}|};
      {|{"verb":"update-evidence","site":"fir","action":"fresh-ld-cache"}|};
      {|{"verb":"snapshot"}|} ]
  in
  let run lines = with_engine @@ fun engine -> List.map (fun l -> handle engine (request l)) lines in
  let expected = run base in
  let reads =
    [ {|{"verb":"predict","binary":"NAS/cg.A@fir/openmpi-1.4-intel","target":"india"}|};
      {|{"verb":"crosscheck"}|}; {|{"verb":"snapshot"}|}; {|{"verb":"stats"}|} ]
  in
  List.iter
    (fun read ->
      for at = 0 to List.length base do
        let lines = List.filteri (fun i _ -> i < at) base @ (read :: List.filteri (fun i _ -> i >= at) base) in
        let answers = List.filteri (fun i _ -> i <> at) (run lines) in
        List.iter2
          (fun want got ->
            Alcotest.(check string) (Printf.sprintf "%s inserted at %d" read at) want got)
          expected answers
      done)
    reads

(* Probe compiles add provenance once per template: over the lifetime
   transcript, the resident world's table gains an image that is not a
   probe only at a registration, one probe record per template at most,
   and nothing when the transcript's other requests run again. *)
let test_provenance_grows_only_by_registration () =
  with_engine @@ fun engine ->
  let run line =
    let _, before = provenance engine in
    ignore (handle engine (request line));
    if not (contains ~affix:{|"verb":"register-|} line) then
      Alcotest.(check int) (line ^ " builds nothing") (List.length before)
        (List.length (snd (provenance engine)))
  in
  let lines = List.filter (( <> ) {|{"verb":"shutdown"}|}) (memo_transcript ()) in
  List.iter run lines;
  let probes, rest = provenance engine in
  let template (p : Feam_sysmodel.Provenance.t) =
    (p.build_site, Option.map Feam_mpi.Stack.slug p.stack, p.program_name)
  in
  Alcotest.(check int) "one probe record per template"
    (List.length (List.sort_uniq compare (List.map template probes)))
    (List.length probes);
  List.iter run (List.filter (fun l -> not (contains ~affix:{|"verb":"register-|} l)) lines);
  Alcotest.(check (pair int int)) "the requests again add nothing"
    (List.length probes, List.length rest)
    (let p, r = provenance engine in (List.length p, List.length r))

(* -- graceful drain ----------------------------------------------------- *)

let test_sigint_drains_and_journal_is_whole () =
  let journal = ref "" in
  Feam_flightrec.Recorder.with_journal ~tool:"serve-test" ~emit:(( := ) journal)
  @@ fun () ->
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
      (* the exposition's three escapes (backslash, quote, newline) are
         JSON string escapes too, so the JSON reader decodes a label *)
      Feam_util.Json.parse ("\"" ^ Test_costs.prom_label s ^ "\"")
      = Ok (Feam_util.Json.Str s))

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
      Alcotest.test_case "a repeated site state serves from the memo" `Slow
        test_memo_serves_a_repeated_state;
      Alcotest.test_case "registration extends the matrix" `Slow
        test_register_extends_matrix;
      Alcotest.test_case "snapshot dumps a drift epoch" `Quick
        test_snapshot_is_a_drift_epoch;
      Alcotest.test_case "crosscheck sees evidence no update recaptured" `Quick
        test_crosscheck_sees_unrecaptured_evidence;
      Alcotest.test_case "transcript replays byte-for-byte" `Slow
        test_transcript_replay_byte_identity;
      Alcotest.test_case "the lifetime memo serves as fresh passes did" `Slow
        test_lifetime_memo_matches_fresh_passes;
      Alcotest.test_case "a registered site joins the resident world" `Slow
        test_registered_site_joins_the_world;
      Alcotest.test_case "reads leave every other answer alone" `Slow
        test_reads_leave_answers_alone;
      Alcotest.test_case "provenance grows only by registration" `Slow
        test_provenance_grows_only_by_registration;
      Alcotest.test_case "SIGINT drains and the journal stays whole" `Quick
        test_sigint_drains_and_journal_is_whole;
      Alcotest.test_case "prom exposition covers serve metrics" `Quick
        test_prom_exposition_covers_serve;
      QCheck_alcotest.to_alcotest prop_label_escaping_roundtrip;
    ] )
