(* Evaluation-harness tests: the Table II sites, the corpus, and — run
   once on the full pipeline — the paper's shape claims (Tables III/IV).
   These are the slowest tests in the suite. *)

open Feam_util
open Feam_sysmodel
open Feam_evalharness

let v = Version.of_string_exn

let params = Params.default

(* -- Sites (Table II) --------------------------------------------------------- *)

let test_five_sites () =
  let sites = Sites.build_all params in
  Alcotest.(check (list string)) "names"
    [ "ranger"; "forge"; "blacklight"; "india"; "fir" ]
    (List.map Site.name sites)

let test_site_characteristics () =
  let sites = Sites.build_all params in
  let glibc name = Site.glibc (Sites.find_by_name sites name) in
  Alcotest.check Fixtures.version "ranger" (v "2.3.4") (glibc "ranger");
  Alcotest.check Fixtures.version "forge" (v "2.12") (glibc "forge");
  Alcotest.check Fixtures.version "blacklight" (v "2.11.1") (glibc "blacklight");
  Alcotest.check Fixtures.version "india" (v "2.5") (glibc "india");
  Alcotest.check Fixtures.version "fir" (v "2.5") (glibc "fir");
  let stacks name =
    List.length (Site.stack_installs (Sites.find_by_name sites name))
  in
  Alcotest.(check int) "ranger 6 stacks" 6 (stacks "ranger");
  Alcotest.(check int) "forge 3 stacks" 3 (stacks "forge");
  Alcotest.(check int) "blacklight 2 stacks" 2 (stacks "blacklight");
  Alcotest.(check int) "india 6 stacks" 6 (stacks "india");
  Alcotest.(check int) "fir 9 stacks" 9 (stacks "fir")

let test_sites_deterministic () =
  let a = Sites.build_all params and b = Sites.build_all params in
  List.iter2
    (fun sa sb ->
      let health i =
        match Stack_install.health i with
        | Stack_install.Functioning -> "f"
        | Stack_install.Misconfigured _ -> "m"
        | Stack_install.Foreign_binary_defect _ -> "d"
      in
      Alcotest.(check (list string))
        (Site.name sa ^ " healths")
        (List.map health (Site.stack_installs sa))
        (List.map health (Site.stack_installs sb)))
    a b

(* -- Corpus (§VI.A) ------------------------------------------------------------- *)

let test_benchmark_suites () =
  Alcotest.(check int) "seven NPB" 7 (List.length Feam_suites.Npb.all);
  Alcotest.(check int) "seven SPEC" 7 (List.length Feam_suites.Specmpi.all);
  (* NPB: one C kernel (IS), six Fortran programs *)
  let fortran =
    List.filter
      (fun b -> b.Feam_suites.Benchmark.language = Feam_mpi.Stack.Fortran)
      Feam_suites.Npb.all
  in
  Alcotest.(check int) "NPB fortran count" 6 (List.length fortran)

(* -- Full pipeline (shared by the remaining tests) -------------------------------- *)

let pipeline =
  lazy
    (let sites = Sites.build_all params in
     let benchmarks = Feam_suites.Npb.all @ Feam_suites.Specmpi.all in
     let binaries = Testset.build params sites benchmarks in
     let migrations = Migrate.run_all params sites binaries in
     (sites, binaries, migrations))

let test_corpus_size () =
  let _, binaries, _ = Lazy.force pipeline in
  let nas, spec = Testset.count_by_suite binaries in
  (* paper: 110 NPB, 147 SPEC — the corpus must be in that neighbourhood *)
  Alcotest.(check bool) (Printf.sprintf "NPB count %d" nas) true (nas >= 95 && nas <= 125);
  Alcotest.(check bool) (Printf.sprintf "SPEC count %d" spec) true
    (spec >= 130 && spec <= 165)

let test_identification_100_percent () =
  let _, binaries, _ = Lazy.force pipeline in
  List.iter
    (fun (b : Testset.binary) ->
      let spec = Result.get_ok (Feam_elf.Reader.spec_of_bytes b.Testset.bytes) in
      match Feam_core.Mpi_ident.identify spec.Feam_elf.Spec.needed with
      | Some ident ->
        Alcotest.(check bool) b.Testset.id true
          (Feam_mpi.Impl.equal ident.Feam_core.Mpi_ident.impl
             (Feam_mpi.Stack.impl (Stack_install.stack b.Testset.install)))
      | None -> Alcotest.failf "%s not identified" b.Testset.id)
    binaries

let test_migrations_only_matching_impl () =
  let sites, _, migrations = Lazy.force pipeline in
  List.iter
    (fun (m : Migrate.migration) ->
      let target = Sites.find_by_name sites m.Migrate.target_name in
      Alcotest.(check bool) "matching impl exists" true
        (Migrate.has_matching_impl m.Migrate.binary target);
      Alcotest.(check bool) "not home" true
        (m.Migrate.target_name <> Site.name m.Migrate.binary.Testset.home))
    migrations

(* The paper's headline shape claims. *)

let accuracy mode suite migrations =
  Accuracy.suite_accuracy mode suite migrations

let test_accuracy_above_90 () =
  let _, _, migrations = Lazy.force pipeline in
  List.iter
    (fun (mode, suite, label) ->
      let a = accuracy mode suite migrations in
      Alcotest.(check bool) (Printf.sprintf "%s %.3f > 0.88" label a) true (a > 0.88))
    [
      (Accuracy.Basic, Feam_suites.Benchmark.Nas, "basic NAS");
      (Accuracy.Basic, Feam_suites.Benchmark.Spec_mpi2007, "basic SPEC");
      (Accuracy.Extended, Feam_suites.Benchmark.Nas, "extended NAS");
      (Accuracy.Extended, Feam_suites.Benchmark.Spec_mpi2007, "extended SPEC");
    ]

let test_extended_not_worse_than_basic () =
  let _, _, migrations = Lazy.force pipeline in
  List.iter
    (fun suite ->
      let b = accuracy Accuracy.Basic suite migrations in
      let e = accuracy Accuracy.Extended suite migrations in
      Alcotest.(check bool) "extended >= basic - eps" true (e >= b -. 0.02))
    [ Feam_suites.Benchmark.Nas; Feam_suites.Benchmark.Spec_mpi2007 ]

let test_resolution_impact_shape () =
  let _, _, migrations = Lazy.force pipeline in
  List.iter
    (fun suite ->
      let r = Resolution_impact.of_suite suite migrations in
      let before = Resolution_impact.rate_before r in
      let after = Resolution_impact.rate_after r in
      (* about half execute before resolution *)
      Alcotest.(check bool) (Printf.sprintf "before %.2f ~ half" before) true
        (before > 0.35 && before < 0.7);
      (* resolution strictly helps, by roughly a third *)
      Alcotest.(check bool) "after > before" true (after > before);
      let inc = Resolution_impact.relative_increase r in
      Alcotest.(check bool) (Printf.sprintf "increase %.2f" inc) true
        (inc > 0.2 && inc < 0.6))
    [ Feam_suites.Benchmark.Nas; Feam_suites.Benchmark.Spec_mpi2007 ]

let test_missing_libs_dominate_failures () =
  let _, _, migrations = Lazy.force pipeline in
  let stats = Resolution_impact.missing_lib_breakdown migrations in
  (* "Of the failing jobs, more than half were missing shared libraries" *)
  Alcotest.(check bool) "more than half" true
    (2 * stats.Resolution_impact.missing_lib_failures
    > stats.Resolution_impact.failures_before);
  Alcotest.(check bool) "some fixed" true (stats.Resolution_impact.missing_lib_fixed > 0)

let test_confusion_totals () =
  let _, _, migrations = Lazy.force pipeline in
  let c = Accuracy.confusion_of Accuracy.Basic migrations in
  let total =
    c.Accuracy.true_ready + c.Accuracy.false_ready + c.Accuracy.true_not_ready
    + c.Accuracy.false_not_ready
  in
  Alcotest.(check int) "totals add up" (List.length migrations) total;
  Alcotest.(check bool) "correct <= total" true
    (c.Accuracy.true_ready + c.Accuracy.true_not_ready <= total)

let test_timing_under_five_minutes () =
  let sites, binaries, _ = Lazy.force pipeline in
  let timings = Timing.sample_timings sites binaries in
  Alcotest.(check bool) "some timings" true (timings <> []);
  Alcotest.(check bool)
    (Printf.sprintf "max %.0fs under 5 minutes" (Timing.max_seconds timings))
    true
    (Timing.max_seconds timings < 300.0)

let test_bundle_sizes_realistic () =
  let sites, binaries, _ = Lazy.force pipeline in
  (* paper: per-site bundles averaged ~45 MB *)
  let reports = Timing.bundle_report sites binaries in
  let sizes = List.map (fun (_, b) -> Timing.mb b) reports in
  let avg = List.fold_left ( +. ) 0.0 sizes /. float_of_int (List.length sizes) in
  Alcotest.(check bool) (Printf.sprintf "avg %.1f MB in [20,80]" avg) true
    (avg > 20.0 && avg < 80.0)

let test_determinism_of_migrations () =
  (* the whole experiment is reproducible from the seed *)
  let sites = Sites.build_all params in
  let benchmarks = [ List.hd Feam_suites.Npb.all ] in
  let binaries = Testset.build params sites benchmarks in
  let m1 = Migrate.run_all params sites binaries in
  let sites2 = Sites.build_all params in
  let binaries2 = Testset.build params sites2 benchmarks in
  let m2 = Migrate.run_all params sites2 binaries2 in
  Alcotest.(check int) "same count" (List.length m1) (List.length m2);
  List.iter2
    (fun (a : Migrate.migration) (b : Migrate.migration) ->
      Alcotest.(check bool) "same basic" a.Migrate.basic_ready b.Migrate.basic_ready;
      Alcotest.(check bool) "same extended" a.Migrate.extended_ready b.Migrate.extended_ready;
      Alcotest.(check string) "same outcome"
        (Feam_dynlinker.Exec.outcome_to_string a.Migrate.actual_after)
        (Feam_dynlinker.Exec.outcome_to_string b.Migrate.actual_after))
    m1 m2

let failed_cell_world () =
  let sites, binaries =
    Driftrun.build_world params (Driftrun.small_specs ())
      (Driftrun.small_benchmarks ()) []
  in
  List.hd (Migrate.cells sites binaries)

let test_failed_cell_cleans_target () =
  (* a cell that raises midway still leaves the target as it was *)
  let binary, target = failed_cell_world () in
  let before = Fixtures.site_digest [ target ] in
  (match
     Migrate.migrate ~bundle_filter:(fun _ -> failwith "boom") params binary
       target
   with
  | _ -> Alcotest.fail "the bundle filter never ran"
  | exception Failure msg -> Alcotest.(check string) "raised" "boom" msg);
  Alcotest.(check (list string)) "the target is as it was" before
    (Fixtures.site_digest [ target ])

let test_failed_body_undoes_any_write () =
  (* the undo is not tied to the staging areas: a cell body that writes
     elsewhere and then raises leaves nothing behind either *)
  let binary, target = failed_cell_world () in
  let before = Fixtures.site_digest [ target ] in
  (match
     Migrate.with_staged binary target (fun _ ->
         Vfs.add (Site.vfs target) "/home/user/elsewhere" (Vfs.Text "left");
         failwith "boom")
   with
  | _ -> Alcotest.fail "the body never ran"
  | exception Failure msg -> Alcotest.(check string) "raised" "boom" msg);
  Alcotest.(check bool) "the stray file is gone" false
    (Vfs.exists (Site.vfs target) "/home/user/elsewhere");
  Alcotest.(check (list string)) "the target is as it was" before
    (Fixtures.site_digest [ target ])

let suite =
  ( "evaluation",
    [
      Alcotest.test_case "five sites" `Quick test_five_sites;
      Alcotest.test_case "Table II characteristics" `Quick test_site_characteristics;
      Alcotest.test_case "sites deterministic" `Quick test_sites_deterministic;
      Alcotest.test_case "benchmark suites" `Quick test_benchmark_suites;
      Alcotest.test_case "corpus size" `Slow test_corpus_size;
      Alcotest.test_case "identification 100%" `Slow test_identification_100_percent;
      Alcotest.test_case "migrations matching impl" `Slow test_migrations_only_matching_impl;
      Alcotest.test_case "accuracy > 90%" `Slow test_accuracy_above_90;
      Alcotest.test_case "extended >= basic" `Slow test_extended_not_worse_than_basic;
      Alcotest.test_case "resolution impact shape" `Slow test_resolution_impact_shape;
      Alcotest.test_case "missing libs dominate" `Slow test_missing_libs_dominate_failures;
      Alcotest.test_case "confusion totals" `Slow test_confusion_totals;
      Alcotest.test_case "timing under 5 minutes" `Slow test_timing_under_five_minutes;
      Alcotest.test_case "bundle sizes" `Slow test_bundle_sizes_realistic;
      Alcotest.test_case "experiment determinism" `Slow test_determinism_of_migrations;
      Alcotest.test_case "failed cell cleans the target" `Quick
        test_failed_cell_cleans_target;
      Alcotest.test_case "failed cell body undoes any write" `Quick
        test_failed_body_undoes_any_write;
    ] )
