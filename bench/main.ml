(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation and measures the cost of the computation behind each.

   Layout: one (name, thunk) bench per experiment (Table I-IV, Figures
   1-4, the SVI.C timing/bundle measurements), a hand-rolled
   warmup-then-sample harness (each bench runs a warmup to size its
   batch, then several timed samples feed the bench histogram — so the
   bucket data in BENCH_feam.json reflects real spread, not a single
   point), then the regenerated artifacts themselves, printed in the
   paper's format with the paper's numbers alongside.

   Every run also appends its means to BENCH_history.jsonl, the
   trajectory `feam bench report` (the perf-regression sentinel) reads.

   Usage:  dune exec bench/main.exe            (benches + all artifacts)
           dune exec bench/main.exe -- tables  (artifacts only)
           dune exec bench/main.exe -- bench   (benches only) *)

open Feam_evalharness

let params = Params.default

(* -- Shared fixtures (prepared once, outside measurement) ------------------- *)

(* A small two-site world for the per-figure/table benches: one guaranteed
   environment and one target with a differing GNU runtime, so prediction
   and resolution both do real work. *)
module Fixture = struct
  open Feam_util
  open Feam_sysmodel
  open Feam_mpi

  let v = Version.of_string_exn

  let gnu412 = Compiler.make Compiler.Gnu (v "4.1.2")
  let gnu445 = Compiler.make Compiler.Gnu (v "4.4.5")

  let stack compiler =
    Stack.make ~impl:Impl.Open_mpi ~impl_version:(v "1.4") ~compiler
      ~interconnect:Interconnect.Ethernet

  let batch =
    Batch.make ~queues:[ { Batch.queue_name = "debug"; wait_seconds = 5.0 } ] Batch.Pbs

  let make_site ~name ~glibc ~compiler ~distro_ver =
    let site =
      Site.make ~description:"bench site" ~compilers:[ compiler ] ~seed:4
        ~fault_model:Fault_model.none
        ~machine:Feam_elf.Types.X86_64
        ~distro:(Distro.make Distro.Centos ~version:(v distro_ver) ~kernel:(v "2.6.18"))
        ~glibc:(v glibc) ~interconnect:Interconnect.Infiniband ~batch name
    in
    let installs =
      Feam_toolchain.Provision.provision_site site
        ~stacks:[ (stack compiler, Stack_install.Functioning) ]
    in
    (site, List.hd installs)

  let home, home_install =
    make_site ~name:"bench-home" ~glibc:"2.5" ~compiler:gnu412 ~distro_ver:"5.6"

  let target, _ =
    make_site ~name:"bench-target" ~glibc:"2.12" ~compiler:gnu445 ~distro_ver:"6.1"

  let program = Feam_toolchain.Compile.program ~language:Stack.Fortran "fbench"

  let home_path =
    match
      Feam_toolchain.Compile.compile_mpi_to home home_install program
        ~dir:"/home/user/apps"
    with
    | Ok p -> p
    | Error _ -> failwith "bench fixture compile failed"

  let home_env = Modules_tool.load_stack (Site.base_env home) home_install

  let config = Feam_core.Config.default

  let bundle =
    match
      Feam_core.Phases.source_phase config home home_env ~binary_path:home_path
    with
    | Ok b -> b
    | Error e -> failwith e

  let binary_bytes =
    match Vfs.find (Site.vfs home) home_path with
    | Some { Vfs.kind = Vfs.Elf bytes; _ } -> bytes
    | _ -> failwith "no bytes"

  let stage_binary () =
    Vfs.add (Site.vfs target) "/home/user/migrated/fbench" (Vfs.Elf binary_bytes);
    "/home/user/migrated/fbench"

  let cleanup_target () = Vfs.remove_tree (Site.vfs target) "/tmp/feam"

  (* Corpus of DT_NEEDED lists for the Table I identification bench. *)
  let needed_corpus =
    [
      [ "libmpi.so.0"; "libopen-rte.so.0"; "libnsl.so.1"; "libutil.so.1"; "libc.so.6" ];
      [ "libmpich.so.1"; "libibverbs.so.1"; "libibumad.so.3"; "libc.so.6" ];
      [ "libmpich.so.1"; "libmpichf90.so.1"; "librt.so.1"; "libc.so.6" ];
      [ "libc.so.6"; "libm.so.6" ];
    ]
end

(* -- Benches: one per table / figure ----------------------------------------- *)

let bench_table1 =
  ( "table1/mpi-identification",
    fun () ->
      List.iter
        (fun needed -> ignore (Feam_core.Mpi_ident.identify needed))
        Fixture.needed_corpus )

let bench_table2 =
  ( "table2/site-provisioning",
    fun () -> ignore (Sites.build_site params (List.hd Sites.specs)) )

let bench_table3_basic =
  ( "table3/basic-prediction",
    fun () ->
      Fixture.cleanup_target ();
      let path = Fixture.stage_binary () in
      ignore
        (Feam_core.Phases.target_phase Fixture.config Fixture.target
           (Feam_sysmodel.Site.base_env Fixture.target)
           ~binary_path:path ()) )

let bench_table3_extended =
  ( "table3/extended-prediction",
    fun () ->
      Fixture.cleanup_target ();
      let path = Fixture.stage_binary () in
      ignore
        (Feam_core.Phases.target_phase Fixture.config Fixture.target
           (Feam_sysmodel.Site.base_env Fixture.target)
           ~bundle:Fixture.bundle ~binary_path:path ()) )

let bench_table4 =
  ( "table4/resolution",
    fun () ->
      Fixture.cleanup_target ();
      ignore
        (Feam_core.Resolve_model.resolve Fixture.config Fixture.target
           (Feam_sysmodel.Site.base_env Fixture.target)
           ~bundle:Fixture.bundle
           ~target_glibc:(Some (Feam_sysmodel.Site.glibc Fixture.target))
           ~binary_machine:Feam_elf.Types.X86_64
           ~binary_class:Feam_elf.Types.C64
           ~missing:[ "libgfortran.so.1" ]) )

let bench_fig1 =
  ( "fig1/determinants",
    fun () ->
      Fixture.cleanup_target ();
      let path = Fixture.stage_binary () in
      let env = Feam_sysmodel.Site.base_env Fixture.target in
      let description =
        Result.get_ok (Feam_core.Bdc.describe Fixture.target env ~path)
      in
      let discovery = Feam_core.Edc.discover ~env_type:`Target Fixture.target env in
      ignore
        (Feam_core.Tec.evaluate Fixture.target env
           {
             Feam_core.Tec.config = Fixture.config;
             description;
             binary_path = Some path;
             bundle = None;
             discovery;
           }) )

let bench_fig2 =
  ( "fig2/both-phases",
    fun () ->
      Fixture.cleanup_target ();
      let bundle =
        Result.get_ok
          (Feam_core.Phases.source_phase Fixture.config Fixture.home
             Fixture.home_env ~binary_path:Fixture.home_path)
      in
      ignore
        (Feam_core.Phases.target_phase Fixture.config Fixture.target
           (Feam_sysmodel.Site.base_env Fixture.target)
           ~bundle ()) )

let bench_fig3 =
  ( "fig3/bdc-description",
    fun () ->
      ignore
        (Feam_core.Bdc.describe Fixture.home Fixture.home_env
           ~path:Fixture.home_path) )

let bench_fig4 =
  ( "fig4/edc-discovery",
    fun () ->
      ignore
        (Feam_core.Edc.discover ~env_type:`Target Fixture.target
           (Feam_sysmodel.Site.base_env Fixture.target)) )

let bench_timing =
  ( "timing/ground-truth-execution",
    fun () ->
      Fixture.cleanup_target ();
      let path = Fixture.stage_binary () in
      let env =
        Feam_sysmodel.Modules_tool.load_stack
          (Feam_sysmodel.Site.base_env Fixture.target)
          (List.hd (Feam_sysmodel.Site.stack_installs Fixture.target))
      in
      ignore
        (Feam_dynlinker.Exec.run Fixture.target env ~binary_path:path
           ~mode:(Feam_dynlinker.Exec.Mpi 4)) )

let elf_bench_spec =
  Feam_elf.Spec.make
    ~needed:[ "libmpi.so.0"; "libc.so.6" ]
    ~verneeds:
      [ { Feam_elf.Spec.vn_file = "libc.so.6"; vn_versions = [ "GLIBC_2.2.5" ] } ]
    Feam_elf.Types.X86_64

(* The parse memo's two sides: a freshly built image always misses, a
   held image hits on every parse after the first. *)
let bench_elf =
  ( "substrate/elf-build-parse",
    fun () ->
      ignore (Feam_elf.Reader.parse (Feam_elf.Builder.build elf_bench_spec)) )

let elf_held_image = lazy (Feam_elf.Builder.build elf_bench_spec)

let bench_elf_hit =
  ( "substrate/elf-parse-hit",
    fun () -> ignore (Feam_elf.Reader.parse (Lazy.force elf_held_image)) )

(* -- Depot benches: content hashing, store round-trip, matrix planning -- *)

(* Payloads the hashing bench chews through: the fixture bundle's
   library images. *)
let depot_payloads =
  List.map
    (fun c -> c.Feam_core.Bdc.copy_bytes)
    Fixture.bundle.Feam_core.Bundle.copies

let bench_depot_hash =
  ( "depot/content-hash",
    fun () ->
      List.iter
        (fun bytes -> ignore (Feam_util.Chash.of_bytes bytes))
        depot_payloads )

let bench_depot_store =
  ( "depot/store-roundtrip",
    fun () ->
      let store = Feam_depot.Store.create () in
      let manifest = Feam_core.Bundle_manifest.of_bundle store Fixture.bundle in
      ignore (Result.get_ok (Feam_core.Bundle_manifest.to_bundle store manifest))
  )

(* The full NAS+SPEC matrix's (target, wants) cells — built once, lazily,
   so `bench tables` never pays for it; the bench then measures planning
   every cell against a fresh per-site possession index. *)
let depot_matrix_cells =
  lazy
    (let sites = Sites.build_all params in
     let benchmarks = Feam_suites.Npb.all @ Feam_suites.Specmpi.all in
     let binaries = Testset.build params sites benchmarks in
     let stats = Depot_stats.run sites binaries in
     List.map
       (fun c -> (c.Depot_stats.dc_target, c.Depot_stats.dc_wants))
       stats.Depot_stats.ds_cells)

let bench_depot_plan =
  ( "depot/plan-matrix",
    fun () ->
      let cells = Lazy.force depot_matrix_cells in
      let possession = Feam_depot.Planner.Possession.create () in
      List.iter
        (fun (site, wants) ->
          let plan =
            Feam_depot.Planner.compute ~site
              ~possessed:(Feam_depot.Planner.Possession.mem possession ~site)
              wants
          in
          Feam_depot.Planner.Possession.commit possession plan)
        cells )

(* Differential agreement: scenario construction alone (sites built,
   binary compiled, perturbations applied), then the full four-predictor
   pipeline per scenario. *)
let bench_agree_scengen =
  ( "agree/scenario-gen",
    fun () -> ignore (Feam_evalharness.Scengen.build ~seed:42 ~index:0 ()) )

let bench_agree_pipeline =
  ( "agree/full-pipeline",
    fun () ->
      ignore
        (Feam_agree.Harness.run_one
           (Feam_evalharness.Scengen.build ~seed:42 ~index:0 ())) )

(* Fact-base extraction over the fixture bundle: a projection of the
   parse memo, which holds every payload after the first run. *)
let factbase_payloads = lazy (Fixture.binary_bytes :: depot_payloads)

let bench_facts_of_bytes =
  ( "audit/facts-of-bytes",
    fun () ->
      List.iter
        (fun bytes -> ignore (Feam_analysis.Factbase.facts_of_bytes bytes))
        (Lazy.force factbase_payloads) )

(* Drift observatory: one perturbation epoch over the reduced two-site
   world, evaluated both ways.  full-reeval predicts every cell of the
   perturbed world from scratch; incremental-reeval diffs the epoch
   snapshots and predicts only the cells the invalidation engine marks
   affected.  The headline drift_incremental / full ratio is the
   observatory's whole value proposition.  The fixture holds one
   evaluation context, as a drift run does; each timed pass starts
   with [Eval_ctx.next_pass]. *)
let drift_fixture =
  lazy
    (let specs = Driftrun.small_specs () in
     let benchmarks = Driftrun.small_benchmarks () in
     let ctx = Feam_core.Eval_ctx.create () in
     let sites0, binaries0 = Driftrun.build_world params specs benchmarks [] in
     let cells0 = Driftrun.predict_all ~ctx sites0 binaries0 in
     let base =
       Driftrun.snapshot_of_world ~ctx ~epoch:0 ~seed:42 ~label:"" sites0
         binaries0 ~cells:cells0
     in
     (* The epoch-3 draw: on the small world it removes one non-MPI
        library, invalidating a strict subset of cells — the regime the
        incremental path is built for.  (The epoch-1 draw happens to
        touch every cell, which would bench incremental as full + diff
        overhead.) *)
     let p =
       Driftrun.draw ~seed:42 ~epoch:3
         ~site_names:(List.map Feam_sysmodel.Site.name sites0)
         ~candidates:(Driftrun.removal_candidates sites0)
     in
     let sites, binaries = Driftrun.build_world params specs benchmarks [ p ] in
     let candidate =
       Driftrun.snapshot_of_world ~ctx ~epoch:1
         ~seed:42 ~label:(Driftrun.perturbation_label p) sites binaries
         ~cells:cells0
     in
     (ctx, base, candidate, sites, binaries))

let bench_drift_full =
  ( "drift/full-reeval",
    fun () ->
      let ctx, _, _, sites, binaries = Lazy.force drift_fixture in
      ignore
        (Driftrun.predict_all ~ctx:(Feam_core.Eval_ctx.next_pass ctx) sites
           binaries) )

let bench_drift_incremental =
  ( "drift/incremental-reeval",
    fun () ->
      let ctx, base, candidate, sites, binaries = Lazy.force drift_fixture in
      let plan = Feam_drift.Invalidate.affected base candidate in
      let reevaluated =
        Driftrun.reevaluate ~ctx:(Feam_core.Eval_ctx.next_pass ctx) sites
          binaries plan.Feam_drift.Invalidate.pl_affected
      in
      ignore
        (Feam_drift.Invalidate.merge
           ~base:base.Feam_drift.Snapshot.cells ~reevaluated) )

(* Per-cell analysis context over the shared fact base — the unit of
   work `feam lint` and every matrix cell's findings pay. *)
let bench_audit_context =
  ( "audit/context-of-bundle",
    fun () ->
      ignore
        (Feam_analysis.Engine.run
           (Feam_analysis.Context.of_bundle
              ~target:(Feam_analysis.Context.target_of_site Fixture.target)
              Fixture.bundle)) )

(* Resident prediction service: a steady-state query answers from the
   warm verdict table (the < 50 µs/op budget the daemon's design
   targets), while an incremental update pays recapture + store diff +
   re-evaluation of only the affected cells — never a cold pass.  The
   update bench toggles the fir ld cache stale/fresh so every call is a
   real accepted mutation. *)
let serve_fixture =
  lazy
    (let engine = Feam_serve.Engine.create ~seed:42 () in
     let snap = Feam_serve.Engine.snapshot engine in
     let cell = List.hd snap.Feam_drift.Snapshot.cells in
     let line =
       Printf.sprintf {|{"verb":"predict","binary":"%s","target":"%s"}|}
         cell.Feam_drift.Snapshot.cl_binary cell.Feam_drift.Snapshot.cl_target
     in
     (engine, line))

let bench_serve_query =
  ( "serve/steady-state-query",
    fun () ->
      let engine, line = Lazy.force serve_fixture in
      match Feam_serve.Protocol.parse line with
      | Ok req -> ignore (Feam_serve.Engine.handle engine req)
      | Error _ -> assert false )

let serve_toggle = ref false

let bench_serve_update =
  ( "serve/incremental-update",
    fun () ->
      let engine, _ = Lazy.force serve_fixture in
      serve_toggle := not !serve_toggle;
      let action =
        if !serve_toggle then Feam_serve.Protocol.Stale_ld_cache
        else Feam_serve.Protocol.Fresh_ld_cache
      in
      ignore
        (Feam_serve.Engine.handle engine
           (Feam_serve.Protocol.Update_evidence
              { ue_site = "fir"; ue_action = action })) )

let all_benches =
  [
    bench_table1; bench_table2; bench_table3_basic; bench_table3_extended;
    bench_table4; bench_fig1; bench_fig2; bench_fig3; bench_fig4;
    bench_timing; bench_elf; bench_elf_hit; bench_depot_hash;
    bench_depot_store; bench_depot_plan; bench_agree_scengen;
    bench_agree_pipeline;
    bench_drift_full; bench_drift_incremental;
    bench_facts_of_bytes; bench_audit_context;
    bench_serve_query; bench_serve_update;
  ]

(* -- Machine-readable results ------------------------------------------------ *)

(* Every timed sample is observed into the bench.ns_per_run{bench=...}
   histogram, then the registry is read back into BENCH_feam.json at the
   repo root — headline timings for the pipeline stages plus the full
   per-bench histogram summaries.  When a previous BENCH_feam.json
   exists, a one-line geometric-mean comparison against it is printed
   before it is overwritten, and each run's means are appended to
   BENCH_history.jsonl for `feam bench report`. *)
let bench_metric = "bench.ns_per_run"
let bench_file = "BENCH_feam.json"
let history_file = "BENCH_history.jsonl"

(* The headline entries: the per-stage costs a reader checks first. *)
let headline_benches =
  [
    ("basic_prediction", "table3/basic-prediction");
    ("extended_prediction", "table3/extended-prediction");
    ("resolution", "table4/resolution");
    ("bdc_description", "fig3/bdc-description");
    ("edc_discovery", "fig4/edc-discovery");
    ("both_phases", "fig2/both-phases");
    ("depot_plan_matrix", "depot/plan-matrix");
    ("agree_full_pipeline", "agree/full-pipeline");
    ("drift_incremental", "drift/incremental-reeval");
    ("audit_context", "audit/context-of-bundle");
    ("serve_steady_state_query", "serve/steady-state-query");
    ("serve_incremental_update", "serve/incremental-update");
  ]

let mean_of name =
  Option.map Feam_obs.Metrics.hist_mean
    (Feam_obs.Metrics.histogram_value bench_metric ~labels:[ ("bench", name) ])

(* ns_per_op of every bench recorded in a previous BENCH_feam.json.
   [None] when there is no usable baseline — file absent, unparsable, or
   a different schema — so the comparison line can say "no baseline"
   instead of inventing a ratio. *)
let previous_means () =
  if not (Sys.file_exists bench_file) then None
  else
    let text = In_channel.with_open_text bench_file In_channel.input_all in
    match Feam_util.Json.parse text with
    | Error _ -> None
    | Ok json -> (
      match
        ( Option.bind (Feam_util.Json.member "schema" json)
            Feam_util.Json.to_int_opt,
          Option.bind (Feam_util.Json.member "benches" json)
            Feam_util.Json.to_list_opt )
      with
      | Some 1, Some benches ->
        Some
          (List.filter_map
             (fun b ->
               match
                 ( Option.bind
                     (Feam_util.Json.member "name" b)
                     Feam_util.Json.to_string_opt,
                   Feam_util.Json.member "ns_per_op" b )
               with
               | Some name, Some (Feam_util.Json.Float ns) -> Some (name, ns)
               | Some name, Some (Feam_util.Json.Int ns) ->
                 Some (name, float_of_int ns)
               | _ -> None)
             benches)
      | _ -> None)

(* One line: geometric-mean new/old ratio over the benches both runs
   share — or an explicit no-baseline notice on the first run. *)
let compare_with_previous previous names =
  match previous with
  | None ->
    Fmt.pr "vs previous %s: no baseline (first run, or schema mismatch)@."
      bench_file
  | Some previous -> (
    let ratios =
      List.filter_map
        (fun name ->
          match (mean_of name, List.assoc_opt name previous) with
          | Some now, Some before when before > 0.0 && now > 0.0 ->
            Some (now /. before)
          | _ -> None)
        names
    in
    match ratios with
    | [] -> Fmt.pr "vs previous %s: no shared benches to compare@." bench_file
    | _ ->
      let n = List.length ratios in
      let gmean =
        exp (List.fold_left (fun acc r -> acc +. log r) 0.0 ratios /. float_of_int n)
      in
      Fmt.pr "vs previous %s: %.2fx geometric-mean time over %d shared benches (%s)@."
        bench_file gmean n
        (if gmean > 1.02 then "slower"
         else if gmean < 0.98 then "faster"
         else "unchanged"))

let write_bench_json names =
  let open Feam_util.Json in
  let entry name =
    match
      Feam_obs.Metrics.histogram_value bench_metric ~labels:[ ("bench", name) ]
    with
    | None -> Obj [ ("name", Str name) ]
    | Some h ->
      Obj
        [
          ("name", Str name);
          ("iterations", Int h.Feam_obs.Metrics.count);
          ("ns_per_op", Float (Feam_obs.Metrics.hist_mean h));
          ( "bounds_ns",
            List
              (Array.to_list
                 (Array.map (fun b -> Float b) h.Feam_obs.Metrics.bounds)) );
          ( "bucket_counts",
            List
              (Array.to_list
                 (Array.map (fun c -> Int c) h.Feam_obs.Metrics.counts)) );
        ]
  in
  let previous = previous_means () in
  let headline =
    List.filter_map
      (fun (key, name) -> Option.map (fun ns -> (key, Float ns)) (mean_of name))
      headline_benches
  in
  let json =
    Obj
      [
        ("schema", Int 1);
        ("headline_ns_per_op", Obj headline);
        ("benches", List (List.map entry names));
      ]
  in
  Out_channel.with_open_text bench_file (fun oc ->
      Out_channel.output_string oc (render json);
      Out_channel.output_char oc '\n');
  compare_with_previous previous names;
  Fmt.pr "machine-readable results written to %s@." bench_file

(* Append this run to the bench trajectory: one timestamp-free JSONL
   record, sequence numbers strictly increasing down the file.  A
   corrupt history is reported and superseded (fresh file at run 1)
   rather than fatal.  Returns the full trajectory including this run,
   for the inline trend report. *)
let append_history names =
  let benches =
    List.filter_map (fun n -> Option.map (fun m -> (n, m)) (mean_of n)) names
  in
  let previous_runs =
    if not (Sys.file_exists history_file) then Ok []
    else
      Feam_obs.Benchtrend.parse_history
        (In_channel.with_open_text history_file In_channel.input_all)
  in
  match previous_runs with
  | Ok runs ->
    let seq =
      match List.rev runs with
      | [] -> 1
      | last :: _ -> last.Feam_obs.Benchtrend.seq + 1
    in
    let run = { Feam_obs.Benchtrend.seq; benches } in
    Out_channel.with_open_gen
      [ Open_wronly; Open_append; Open_creat; Open_text ]
      0o644 history_file
      (fun oc ->
        Out_channel.output_string oc
          (Feam_obs.Benchtrend.render_history [ run ]));
    Fmt.pr "bench trajectory: run %d appended to %s@." seq history_file;
    runs @ [ run ]
  | Error e ->
    Fmt.epr "warning: %s: %s - starting a fresh history@." history_file e;
    let run = { Feam_obs.Benchtrend.seq = 1; benches } in
    Out_channel.with_open_text history_file (fun oc ->
        Out_channel.output_string oc
          (Feam_obs.Benchtrend.render_history [ run ]));
    [ run ]

(* -- Measurement harness ----------------------------------------------------- *)

let now_ns () = Unix.gettimeofday () *. 1e9

let samples_per_bench = 8
let warmup_min_runs = 3
let warmup_min_ns = 2e6
let sample_target_ns = 4e6
let max_batch = 10_000

(* Warm the bench up (fills caches, forces lazy fixtures), estimate its
   per-run cost, then take [samples_per_bench] timed samples of a batch
   sized to ~[sample_target_ns] each.  Every sample's ns/run lands in
   the bench histogram, so BENCH_feam.json's bucket counts describe a
   real distribution instead of a single point. *)
let measure (name, f) =
  let t0 = now_ns () in
  let rec warm runs =
    f ();
    let elapsed = now_ns () -. t0 in
    if runs < warmup_min_runs || elapsed < warmup_min_ns then warm (runs + 1)
    else (runs, elapsed)
  in
  let runs, elapsed = warm 1 in
  let est = Float.max 1.0 (elapsed /. float_of_int runs) in
  let batch = max 1 (min max_batch (int_of_float (sample_target_ns /. est))) in
  for _ = 1 to samples_per_bench do
    let s0 = now_ns () in
    for _ = 1 to batch do
      f ()
    done;
    let per_run = (now_ns () -. s0) /. float_of_int batch in
    Feam_obs.Metrics.observe ~labels:[ ("bench", name) ] bench_metric per_run
  done;
  (match mean_of name with
  | Some mean ->
    Fmt.pr "  %-36s %14.1f ns/run (%d samples x %d runs)@." name mean
      samples_per_bench batch
  | None -> Fmt.pr "  %-36s (no samples)@." name);
  name

let run_benches () =
  Fmt.pr "## Microbenchmarks (one per table/figure; warmup + %d timed samples)@.@."
    samples_per_bench;
  let names = List.map measure all_benches in
  write_bench_json names;
  let trajectory = append_history names in
  (* The inline (non-gating) trend report `feam bench report` also
     prints from the same history. *)
  print_string (Feam_obs.Benchtrend.render (Feam_obs.Benchtrend.evaluate trajectory));
  Fmt.pr "@."

(* -- Artifact regeneration ----------------------------------------------------- *)

let print_figures () =
  (* Figures 1-4 are architecture/diagram figures; we print their live
     counterparts: the determinant tree, the phase trace, and the BDC/EDC
     outputs for a sample migration. *)
  Fixture.cleanup_target ();
  let path = Fixture.stage_binary () in
  let env = Feam_sysmodel.Site.base_env Fixture.target in
  let description = Result.get_ok (Feam_core.Bdc.describe Fixture.target env ~path) in
  let discovery = Feam_core.Edc.discover ~env_type:`Target Fixture.target env in
  Fmt.pr "## Figure 3 - information gathered by the BDC (sample binary)@.@.%a@.@."
    Feam_core.Description.pp description;
  Fmt.pr "## Figure 4 - information gathered by the EDC (sample site)@.@.%a@.@."
    Feam_core.Discovery.pp discovery;
  let prediction =
    Feam_core.Tec.evaluate Fixture.target env
      {
        Feam_core.Tec.config = Fixture.config;
        description;
        binary_path = Some path;
        bundle = Some Fixture.bundle;
        discovery;
      }
  in
  Fmt.pr "## Figure 1 - prediction-model determinants (evaluated)@.@.%a@.@."
    Feam_core.Predict.pp_determinant_summary prediction;
  let report =
    Feam_core.Report.make ~site_name:"bench-target" ~binary:path prediction
  in
  Fmt.pr "## Figure 2 - phases and components (target-phase report)@.@.%s@."
    (Feam_core.Report.render report)

let print_tables () =
  Fmt.pr "## Regenerating the evaluation (five sites, full corpus)@.@.";
  let sites = Sites.build_all params in
  let benchmarks = Feam_suites.Npb.all @ Feam_suites.Specmpi.all in
  let binaries = Testset.build params sites benchmarks in
  let nas, spec = Testset.count_by_suite binaries in
  Fmt.pr "Test set: %d NPB + %d SPEC MPI2007 binaries (paper: 110 + 147)@.@." nas spec;
  let migrations = Migrate.run_all params sites binaries in
  let t1, t1_note = Tables.table1 binaries in
  Feam_util.Table.print t1;
  Fmt.pr "%s@.(paper reports the identification scheme was 100%% accurate)@.@." t1_note;
  Feam_util.Table.print (Tables.table2 sites);
  Fmt.pr "@.";
  Feam_util.Table.print (Tables.table3 migrations);
  Fmt.pr "(paper: basic 94%% NAS / 92%% SPEC; extended 99%% / 93%%)@.@.";
  Feam_util.Table.print (Tables.table4 migrations);
  Fmt.pr "(paper: before 58%% / 47%%; after 78%% / 66%%; increase 33%% / 39%%)@.@.";
  Feam_util.Table.print (Tables.failure_breakdown migrations);
  let stats = Resolution_impact.missing_lib_breakdown migrations in
  Fmt.pr
    "missing-library failures: %d of %d pre-resolution failures (paper: more \
     than half); %d fixed by resolution (paper: about half)@.@."
    stats.Resolution_impact.missing_lib_failures
    stats.Resolution_impact.failures_before
    stats.Resolution_impact.missing_lib_fixed;
  Feam_util.Table.print (Corpus_stats.table sites binaries);
  Fmt.pr "@.";
  Feam_util.Table.print (Tables.accuracy_by_site migrations);
  Fmt.pr "@.";
  Feam_util.Table.print (Matrix.table (Matrix.build sites migrations));
  Fmt.pr "@.";
  Feam_util.Table.print (Effort.table migrations);
  Fmt.pr "@.";
  (* SVI.C: phase timing and bundle size *)
  let timings = Timing.sample_timings sites binaries in
  Fmt.pr "## SVI.C - phase timing and bundle size@.@.";
  Fmt.pr
    "FEAM phase wall-clock (simulated): max %.1f s across %d sampled \
     migrations (paper: always < 5 min)@."
    (Timing.max_seconds timings) (List.length timings);
  List.iter
    (fun (site, bytes) ->
      Fmt.pr "  library bundle at %-10s : %5.1f MB@." site (Timing.mb bytes))
    (Timing.bundle_report sites binaries);
  Fmt.pr "(paper: per-site bundles averaged ~45 MB)@.@.";
  (* Ablation: contribution of each extended-prediction capability. *)
  Fmt.pr "## Ablation (one full evaluation per variant)@.@.";
  Feam_util.Table.print (Ablation.table (Ablation.run params))

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  (match mode with
  | "bench" -> run_benches ()
  | "tables" ->
    print_figures ();
    print_tables ()
  | _ ->
    run_benches ();
    print_figures ();
    print_tables ());
  Fmt.pr "@.done.@."
