(* Regenerates the paper's evaluation: builds the five Table II sites,
   compiles the NPB + SPEC MPI2007 corpus, migrates every binary to every
   matching site, and prints Tables I-IV plus the supporting analyses. *)

open Feam_evalharness

let run_eval seed verbose =
  let params = { Params.default with Params.seed } in
  Fmt.pr "Provisioning the five Table II sites...@.";
  let sites = Sites.build_all params in
  Fmt.pr "Compiling benchmark corpus (NPB 2.4 + SPEC MPI2007)...@.";
  let benchmarks = Feam_suites.Npb.all @ Feam_suites.Specmpi.all in
  let binaries = Testset.build params sites benchmarks in
  let nas, spec = Testset.count_by_suite binaries in
  Fmt.pr "Test set: %d NPB binaries, %d SPEC MPI2007 binaries (paper: 110, 147)@."
    nas spec;
  Fmt.pr "Running migrations...@.";
  let migrations = Migrate.run_all params sites binaries in
  Fmt.pr "Migrations with a matching MPI implementation: %d (NAS %d, SPEC %d)@.@."
    (List.length migrations)
    (List.length (Migrate.of_suite Feam_suites.Benchmark.Nas migrations))
    (List.length (Migrate.of_suite Feam_suites.Benchmark.Spec_mpi2007 migrations));
  Feam_util.Table.print (Corpus_stats.table sites binaries);
  Fmt.pr "@.";
  let t1, t1_note = Tables.table1 binaries in
  Feam_util.Table.print t1;
  Fmt.pr "%s@.@." t1_note;
  Feam_util.Table.print (Tables.table2 sites);
  Fmt.pr "@.";
  Feam_util.Table.print (Tables.table3 migrations);
  Fmt.pr "(paper: basic 94%% / 92%%, extended 99%% / 93%%)@.@.";
  Feam_util.Table.print (Tables.table4 migrations);
  Fmt.pr "(paper: before 58%% / 47%%, after 78%% / 66%%, increase 33%% / 39%%)@.@.";
  Feam_util.Table.print (Tables.accuracy_by_site migrations);
  Fmt.pr "@.";
  Feam_util.Table.print (Tables.failure_breakdown migrations);
  let stats = Resolution_impact.missing_lib_breakdown migrations in
  Fmt.pr
    "missing-library failures: %d of %d pre-resolution failures; %d fixed by \
     resolution@.@."
    stats.Resolution_impact.missing_lib_failures
    stats.Resolution_impact.failures_before
    stats.Resolution_impact.missing_lib_fixed;
  Feam_util.Table.print (Tables.symbol_impact sites binaries);
  Fmt.pr "@.";
  (* differential agreement: all four verdict sources over a seeded
     perturbation corpus, scored against the dynamic-linker oracle *)
  let agree_count = 200 in
  Fmt.pr "Running the predictor-agreement corpus (%d scenarios, seed %d)...@."
    agree_count params.Params.seed;
  let agree_runs =
    Feam_agree.Harness.run_corpus ~seed:params.Params.seed ~count:agree_count ()
  in
  Feam_util.Table.print (Feam_agree.Harness.score_table agree_runs);
  Fmt.pr "@.";
  Feam_util.Table.print (Feam_agree.Harness.pairwise_table agree_runs);
  Fmt.pr "@.";
  Feam_util.Table.print (Feam_agree.Harness.disagreement_table agree_runs);
  Fmt.pr "@.";
  (* per-rule severity calibration: the same corpus, scored rule by
     rule — a rule whose warnings never co-occur with an oracle failure
     is demoted to info *)
  Feam_util.Table.print (Feam_agree.Calibrate.table agree_runs);
  (match Feam_agree.Calibrate.demotions agree_runs with
  | [] -> Fmt.pr "calibration: every warning rule co-fires with failures@.@."
  | demoted ->
    Fmt.pr "calibration demotes to info: %s@.@." (String.concat ", " demoted));
  Feam_util.Table.print (Matrix.table (Matrix.build sites migrations));
  Fmt.pr "@.";
  Feam_util.Table.print (Effort.table migrations);
  Fmt.pr "@.";
  let timings = Timing.sample_timings sites binaries in
  Fmt.pr "FEAM phase timings (simulated): max %.1f s (paper: < 5 min)@."
    (Timing.max_seconds timings);
  Fmt.pr "@.";
  Feam_util.Table.print (Timing.phase_breakdown_table ());
  Fmt.pr "@.";
  List.iter
    (fun (site, bytes) ->
      Fmt.pr "  bundle at %-10s: %.1f MB@." site (Timing.mb bytes))
    (Timing.bundle_report sites binaries);
  Fmt.pr "@.";
  (* depot-backed transfer accounting: one shared content-addressed
     store, one plan per matrix cell against the per-site possession
     index (paper §VI.C ships the full bundle per cell) *)
  print_string (Depot_stats.render (Depot_stats.run sites binaries));
  if verbose then begin
    (* mispredictions, grouped: false-ready by actual failure cause,
       then false-not-ready *)
    let dump label correct ready actual =
      Fmt.pr "@.Mispredictions (%s):@." label;
      let wrong = List.filter (fun m -> not (correct m)) migrations in
      let false_ready, false_not_ready = List.partition ready wrong in
      let by_cause = Hashtbl.create 8 in
      List.iter
        (fun m ->
          match actual m with
          | Feam_dynlinker.Exec.Success -> ()
          | Feam_dynlinker.Exec.Failure f ->
            let cause = Accuracy.cause_name (Accuracy.classify f) in
            Hashtbl.replace by_cause cause
              (m :: Option.value (Hashtbl.find_opt by_cause cause) ~default:[]))
        false_ready;
      Hashtbl.iter
        (fun cause ms ->
          Fmt.pr "  predicted ready, failed by %s (%d):@." cause (List.length ms);
          List.iter
            (fun (m : Migrate.migration) ->
              Fmt.pr "    %s -> %s: %s@." m.Migrate.binary.Testset.id
                m.Migrate.target_name
                (Feam_dynlinker.Exec.outcome_to_string (actual m)))
            ms)
        by_cause;
      if false_not_ready <> [] then begin
        Fmt.pr "  predicted not-ready, actually ran (%d):@."
          (List.length false_not_ready);
        List.iter
          (fun (m : Migrate.migration) ->
            Fmt.pr "    %s -> %s@." m.Migrate.binary.Testset.id m.Migrate.target_name)
          false_not_ready
      end
    in
    dump "extended" Migrate.extended_correct
      (fun m -> m.Migrate.extended_ready)
      (fun m -> m.Migrate.actual_after);
    dump "basic" Migrate.basic_correct
      (fun m -> m.Migrate.basic_ready)
      (fun m -> m.Migrate.actual_before)
  end

(* --journal DIR: journal the migration matrix, one self-contained
   flight-recorder journal per (binary, target) cell, each replayable
   and diffable on its own with `feam replay` / `feam diff`. *)
let run_journal seed dir =
  let params = { Params.default with Params.seed } in
  Fmt.pr "Provisioning the five Table II sites...@.";
  let sites = Sites.build_all params in
  Fmt.pr "Compiling benchmark corpus (NPB 2.4 + SPEC MPI2007)...@.";
  let benchmarks = Feam_suites.Npb.all @ Feam_suites.Specmpi.all in
  let binaries = Testset.build params sites benchmarks in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let write ~name body =
    Out_channel.with_open_text (Filename.concat dir name) (fun oc ->
        Out_channel.output_string oc body)
  in
  Fmt.pr "Journaling migration-matrix cells...@.";
  let names = Journals.write_cells ~write sites binaries in
  Fmt.pr "wrote %d cell journals to %s@." (List.length names) dir

(* --depot DIR: write the depot determinism artifacts — the shared
   store's listing, every cell's transfer plan, the summary, and one
   replayable plan journal.  Two runs at the same seed must produce
   store.txt and plans.txt byte-identically (the CI depot job diffs
   them). *)
let run_depot seed dir =
  let params = { Params.default with Params.seed } in
  Fmt.pr "Provisioning the five Table II sites...@.";
  let sites = Sites.build_all params in
  Fmt.pr "Compiling benchmark corpus (NPB 2.4 + SPEC MPI2007)...@.";
  let benchmarks = Feam_suites.Npb.all @ Feam_suites.Specmpi.all in
  let binaries = Testset.build params sites benchmarks in
  Fmt.pr "Planning depot transfers over the migration matrix...@.";
  let stats = Depot_stats.run sites binaries in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let write ~name body =
    Out_channel.with_open_text (Filename.concat dir name) (fun oc ->
        Out_channel.output_string oc body)
  in
  write ~name:"store.txt" (Feam_depot.Store.listing stats.Depot_stats.ds_store);
  write ~name:"plans.txt" (Depot_stats.plans_text stats);
  write ~name:"summary.txt" (Depot_stats.render stats);
  let journal = Depot_stats.journal_plan ~write stats in
  print_string (Depot_stats.render stats);
  Fmt.pr "wrote depot artifacts to %s (%d cells planned%s)@." dir
    (List.length stats.Depot_stats.ds_cells)
    (match journal with
    | Some name -> ", plan journal " ^ name
    | None -> "")

(* --costs: run the full migration matrix under the cost ledger and
   print the observatory's rollups — cost per stage, per determinant,
   the top-K most expensive cells, and the cache-efficiency table.
   The ledger's cost unit is allocated words (deterministic across
   identical runs); its clock defaults to fixed, so the ns columns stay
   zero and the whole report is byte-stable — the CI costs job diffs
   two runs.  --costs-wall swaps in the wall clock for a live profile
   at the price of determinism. *)
let run_costs seed top wall =
  let params = { Params.default with Params.seed } in
  Fmt.pr "Provisioning the five Table II sites...@.";
  let sites = Sites.build_all params in
  Fmt.pr "Compiling benchmark corpus (NPB 2.4 + SPEC MPI2007)...@.";
  let benchmarks = Feam_suites.Npb.all @ Feam_suites.Specmpi.all in
  let binaries = Testset.build params sites benchmarks in
  Fmt.pr "Running the migration matrix under the cost ledger...@.@.";
  let clock =
    if wall then Feam_obs.Clock.wall else Feam_obs.Clock.fixed ()
  in
  let ledger = Feam_obs.Ledger.create ~clock () in
  Feam_obs.Ledger.install ledger;
  let migrations =
    Fun.protect ~finally:Feam_obs.Ledger.uninstall (fun () ->
        Migrate.run_all params sites binaries)
  in
  Fmt.pr "migrations executed: %d@.@." (List.length migrations);
  print_string (Feam_obs.Ledger.render ~top ledger)

(* --audit: run the fleet-tier static-analysis rules over the whole
   simulated fleet and print the audit report.  Everything is a pure
   function of the seed, so two runs must agree byte for byte (the CI
   audit job diffs them). *)
let run_audit seed =
  let fleet =
    Feam_evalharness.Audit.of_seed ~on_progress:(Fmt.pr "%s@.") ~seed ()
  in
  let findings = Feam_analysis.Engine.run_fleet fleet in
  print_string (Feam_analysis.Engine.render_fleet_text fleet findings)

(* --drift DIR: replay the seeded drift sequence over the full matrix —
   epoch snapshots, diff-driven incremental re-evaluation, readiness
   timeline — and write the determinism artifacts (epoch_NNNN.jsonl,
   timeline.jsonl) to DIR.  Byte-deterministic per seed: the CI drift
   job diffs two runs. *)
let run_drift seed dir epochs =
  Fmt.pr "Replaying the drift sequence (%d epochs, seed %d)...@." epochs seed;
  let result =
    Driftrun.run ~progress:(Fmt.pr "  %s@.") ~seed ~epochs ()
  in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let store = Feam_drift.Epoch_store.open_ dir in
  List.iter
    (fun s -> ignore (Feam_drift.Epoch_store.put store s))
    (Driftrun.snapshots result);
  let timeline = Driftrun.timeline result in
  Out_channel.with_open_text (Filename.concat dir "timeline.jsonl") (fun oc ->
      Out_channel.output_string oc
        (Feam_drift.Timeline.render_history timeline));
  Fmt.pr "@.";
  print_string (Feam_drift.Timeline.render_entries timeline);
  let incr = result.Driftrun.dr_cells_reevaluated in
  let full = result.Driftrun.dr_cells_full in
  Fmt.pr
    "incremental re-evaluation: %d of %d cell evaluations over %d epochs \
     (%.1fx speedup vs full re-eval)@."
    incr full epochs
    (if incr = 0 then float_of_int full
     else float_of_int full /. float_of_int incr);
  Fmt.pr "wrote %d epoch snapshots and timeline.jsonl to %s@."
    (List.length result.Driftrun.dr_epochs)
    dir;
  match result.Driftrun.dr_crosscheck with
  | Ok () ->
    Fmt.pr "cross-check: incremental verdicts byte-identical to a full \
            re-evaluation@."
  | Error e ->
    Fmt.epr "cross-check FAILED: %s@." e;
    Feam_obs.flush ();
    exit 1

let run_sweep n_seeds =
  let aggregates =
    Sweep.run ~on_progress:(fun seed -> Fmt.pr "  seed %d done@." seed) n_seeds
  in
  Feam_util.Table.print (Sweep.table ~seeds:n_seeds aggregates)

open Cmdliner

let seed =
  Arg.(value & opt int Params.default.Params.seed & info [ "seed" ] ~doc:"Evaluation seed.")

let verbose =
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"List every misprediction.")

let sweep =
  Arg.(
    value
    & opt (some int) None
    & info [ "sweep" ] ~docv:"N"
        ~doc:"Run the evaluation over N consecutive seeds and report each \
              headline metric as mean and range.")

let run_whatif seed =
  let params = { Params.default with Params.seed } in
  let v = Feam_util.Version.of_string_exn in
  let changes =
    [
      (* the dominant failure class: vendor runtimes absent at targets *)
      ("forge", Whatif.Add_compiler (Feam_mpi.Compiler.make Feam_mpi.Compiler.Pgi (v "10.9")));
      ("india", Whatif.Add_compiler (Feam_mpi.Compiler.make Feam_mpi.Compiler.Pgi (v "10.9")));
      (* widening the implementation universe at the OMPI-only site *)
      ( "blacklight",
        Whatif.Add_stack
          (Feam_mpi.Stack.make ~impl:Feam_mpi.Impl.Mpich2 ~impl_version:(v "1.4")
             ~compiler:(Feam_mpi.Compiler.make Feam_mpi.Compiler.Gnu (v "4.4.3"))
             ~interconnect:Feam_mpi.Interconnect.Ethernet) );
    ]
  in
  Fmt.pr "Running what-if analysis (two full evaluations per change)...@.";
  let results =
    List.map
      (fun (site_name, change) ->
        let r = Whatif.evaluate params ~site_name ~change in
        Fmt.pr "  %s: %s done@." site_name (Whatif.change_to_string change);
        r)
      changes
  in
  Feam_util.Table.print (Whatif.table results)

let run_ablation seed =
  let params = { Params.default with Params.seed } in
  Fmt.pr "Running the ablation variants (one full evaluation each)...@.";
  let results = Ablation.run params in
  Feam_util.Table.print (Ablation.table results)

(* --trace/--trace-out: stream the evaluation's spans (per-scenario
   migrations, sweep seeds, phase breakdowns) to a trace sink. *)
let setup_obs trace trace_out =
  Option.iter
    (fun format ->
      Feam_obs.trace_to ?file:trace_out format;
      at_exit Feam_obs.flush)
    trace

let trace =
  Arg.(
    value
    & opt
        (some (enum Feam_obs.trace_formats))
        None
    & info [ "trace" ] ~docv:"FORMAT"
        ~doc:"Trace the evaluation: 'pretty', 'jsonl', or 'chrome'.")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Write the trace to FILE instead of the terminal.")

let run seed verbose sweep_n ablation whatif audit journal_dir depot_dir
    drift_dir drift_epochs costs costs_top costs_wall trace trace_out =
  setup_obs trace trace_out;
  (if ablation then run_ablation seed
   else if whatif then run_whatif seed
   else if audit then run_audit seed
   else if costs then run_costs seed costs_top costs_wall
   else
     match (drift_dir, depot_dir, journal_dir, sweep_n) with
     | Some dir, _, _, _ -> run_drift seed dir drift_epochs
     | None, Some dir, _, _ -> run_depot seed dir
     | None, None, Some dir, _ -> run_journal seed dir
     | None, None, None, Some n when n > 0 -> run_sweep n
     | None, None, None, _ -> run_eval seed verbose);
  Feam_obs.flush ()

let ablation =
  Arg.(
    value & flag
    & info [ "ablation" ]
        ~doc:"Run the ablation study: re-measure extended accuracy and               post-resolution success with each capability stripped.")

let whatif =
  Arg.(
    value & flag
    & info [ "whatif" ]
        ~doc:"Run the administrator what-if analysis: measure the migrations               unlocked by hypothetical installs at the Table II sites.")

let audit =
  Arg.(
    value & flag
    & info [ "audit" ]
        ~doc:"Instead of the evaluation tables, run the fleet-tier \
              static-analysis rules over the whole simulated fleet and \
              print the audit report.  Byte-deterministic per seed.")

let journal_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"DIR"
        ~doc:"Instead of the evaluation tables, journal the migration \
              matrix: one flight-recorder journal per (binary, target) \
              cell, written to DIR (created if absent) and individually \
              replayable with 'feam replay'.")

let depot_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "depot" ] ~docv:"DIR"
        ~doc:"Instead of the evaluation tables, run the depot transfer \
              planning over the migration matrix and write its determinism \
              artifacts to DIR (created if absent): the shared store \
              listing, every cell's plan, the summary, and one replayable \
              plan journal.")

let drift_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "drift" ] ~docv:"DIR"
        ~doc:"Instead of the evaluation tables, replay the seeded drift \
              sequence over the migration matrix — epoch snapshots, \
              diff-driven incremental re-evaluation, readiness timeline — \
              and write the determinism artifacts (epoch_NNNN.jsonl, \
              timeline.jsonl) to DIR (created if absent).")

let drift_epochs =
  Arg.(
    value & opt int 6
    & info [ "drift-epochs" ] ~docv:"N"
        ~doc:"How many perturbation epochs --drift replays after the \
              baseline.")

let costs =
  Arg.(
    value & flag
    & info [ "costs" ]
        ~doc:"Instead of the evaluation tables, run the migration matrix \
              under the cost ledger and print per-stage, per-determinant \
              and per-cell cost attribution plus cache efficiency.  Cost \
              is allocated words, so the report is byte-deterministic.")

let costs_top =
  Arg.(
    value & opt int 15
    & info [ "costs-top" ] ~docv:"K"
        ~doc:"How many of the most expensive cells --costs lists.")

let costs_wall =
  Arg.(
    value & flag
    & info [ "costs-wall" ]
        ~doc:"Attribute wall-clock nanoseconds in --costs instead of the \
              deterministic fixed clock (output varies run to run).")

let cmd =
  Cmd.v
    (Cmd.info "evaltool" ~doc:"Regenerate the FEAM paper's evaluation tables")
    Term.(
      const run $ seed $ verbose $ sweep $ ablation $ whatif $ audit
      $ journal_dir $ depot_dir $ drift_dir $ drift_epochs $ costs
      $ costs_top $ costs_wall $ trace $ trace_out)

let () = exit (Cmd.eval cmd)
