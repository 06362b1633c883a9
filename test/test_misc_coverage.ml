(* Remaining coverage: bundle merging, advisor cost model, timing
   helpers, discovery printing, effort table wiring. *)

open Feam_sysmodel
open Feam_core

let make_bundle site installs =
  let path, install =
    Fixtures.compiled_binary ~program:Fixtures.fortran_program site installs
  in
  let env = Fixtures.session_env site install in
  Fixtures.run_exn (Phases.source_phase Config.default site env ~binary_path:path)

let test_merged_library_bytes_dedups () =
  let site, installs = Fixtures.small_site ~name:"mergehome" () in
  let b1 = make_bundle site installs in
  (* a second binary at the same site shares the same library copies *)
  let path2, install =
    Fixtures.compiled_binary
      ~program:(Feam_toolchain.Compile.program ~language:Feam_mpi.Stack.Fortran "fapp2")
      site installs
  in
  let env = Fixtures.session_env site install in
  let b2 =
    Fixtures.run_exn (Phases.source_phase Config.default site env ~binary_path:path2)
  in
  let merged = Bundle.merged_library_bytes [ b1; b2 ] in
  let single = Bundle.library_bytes b1 in
  Alcotest.(check int) "shared copies counted once" single merged;
  Alcotest.(check bool) "naive sum would be double" true
    (Bundle.library_bytes b1 + Bundle.library_bytes b2 = 2 * merged)

let test_bundle_total_includes_binary () =
  let site, installs = Fixtures.small_site ~name:"mergehome2" () in
  let b = make_bundle site installs in
  Alcotest.(check bool) "total > libraries" true
    (Bundle.total_bytes b > Bundle.library_bytes b)

let test_recompile_seconds_monotone () =
  let site, _ = Fixtures.small_site ~name:"rc" () in
  let estimate source_size_mb =
    let source =
      Feam_toolchain.Compile.program ~binary_size_mb:source_size_mb "rcapp"
    in
    match
      (Advisor.advise site ~binary_prediction:(Fixtures.not_ready "binary fails")
         ~source:(Some source))
        .Advisor.strategy
    with
    | Advisor.Recompile check -> check.Advisor.rc_estimate_seconds
    | s -> Alcotest.failf "expected Recompile, got %s" (Advisor.strategy_to_string s)
  in
  let small = estimate 1.0 in
  let large = estimate 10.0 in
  Alcotest.(check bool) "bigger source builds longer" true (large > small);
  Alcotest.(check bool) "positive" true (small > 0.0)

let test_timing_helpers () =
  let params = Feam_evalharness.Params.default in
  let sites = Feam_evalharness.Sites.build_all params in
  let benchmarks = [ List.hd Feam_suites.Npb.all ] in
  let binaries = Feam_evalharness.Testset.build params sites benchmarks in
  match binaries with
  | [] -> Alcotest.fail "empty corpus"
  | b :: _ ->
    let target =
      List.find
        (fun s ->
          Site.name s <> Site.name b.Feam_evalharness.Testset.home
          && Feam_evalharness.Migrate.has_matching_impl b s)
        sites
    in
    let timings = Feam_evalharness.Timing.sample_timings sites [ b ] in
    Alcotest.(check bool) "target timed" true
      (List.exists
         (fun t -> t.Feam_evalharness.Timing.target = Site.name target)
         timings);
    List.iter
      (fun t ->
        Alcotest.(check bool) "source time positive" true
          (t.Feam_evalharness.Timing.source_seconds > 0.0);
        Alcotest.(check bool) "target time positive" true
          (t.Feam_evalharness.Timing.target_seconds > 0.0);
        Alcotest.(check bool) "both under the paper's bound" true
          (t.Feam_evalharness.Timing.source_seconds < 300.0
          && t.Feam_evalharness.Timing.target_seconds < 300.0))
      timings;
    Alcotest.(check (float 1e-9)) "mb helper" 2.0
      (Feam_evalharness.Timing.mb (2 * 1024 * 1024))

let test_discovery_pp_smoke () =
  let site, installs = Fixtures.small_site ~name:"ppsite" () in
  let env = Fixtures.session_env site (List.hd installs) in
  let d = Edc.discover ~env_type:`Guaranteed site env in
  let text = Fmt.str "%a" Discovery.pp d in
  Alcotest.(check bool) "mentions environment" true
    (Str_split.contains ~sub:"guaranteed execution site" text);
  Alcotest.(check bool) "mentions stack" true
    (Str_split.contains ~sub:"Open MPI" text)

let test_description_pp_smoke () =
  let site, installs = Fixtures.small_site ~name:"ppsite2" () in
  let path, _ = Fixtures.compiled_binary site installs in
  let d = Fixtures.run_exn (Bdc.describe site (Site.base_env site) ~path) in
  let text = Fmt.str "%a" Description.pp d in
  Alcotest.(check bool) "format shown" true
    (Str_split.contains ~sub:"elf64-x86-64" text)

let suite =
  ( "misc-coverage",
    [
      Alcotest.test_case "merged bundle bytes dedup" `Quick
        test_merged_library_bytes_dedups;
      Alcotest.test_case "bundle total includes binary" `Quick
        test_bundle_total_includes_binary;
      Alcotest.test_case "recompile cost monotone" `Quick test_recompile_seconds_monotone;
      Alcotest.test_case "timing helpers" `Slow test_timing_helpers;
      Alcotest.test_case "discovery pp" `Quick test_discovery_pp_smoke;
      Alcotest.test_case "description pp" `Quick test_description_pp_smoke;
    ] )
