(* Cost-accounting tests: every simulated operation charges the clock in
   scope, retries multiply the charge, and the paper-facing tables
   render. *)

open Feam_sysmodel
open Feam_util

let test_exec_charges_per_attempt () =
  let site, installs = Fixtures.small_site ~name:"chargesite" () in
  let install = List.hd installs in
  let path, _ = Fixtures.compiled_binary site installs in
  let env = Fixtures.session_env site install in
  let queue_wait = (Batch.debug_queue (Site.batch site)).Batch.wait_seconds in
  (* one successful attempt charges one queue wait + one MPI run *)
  let clock = Sim_clock.create () in
  ignore
    ( Effects.with_clock clock @@ fun () ->
      Feam_dynlinker.Exec.run ~params:Fault_model.none site env
        ~binary_path:path ~mode:(Feam_dynlinker.Exec.Mpi 4) );
  Alcotest.(check (float 1e-6)) "one attempt"
    (queue_wait +. Cost.probe_run_mpi)
    (Sim_clock.elapsed clock);
  (* a sticky system error exhausts all five attempts *)
  let clock = Sim_clock.create () in
  ignore
    ( Effects.with_clock clock @@ fun () ->
      Feam_dynlinker.Exec.run
        ~params:{ Fault_model.none with Fault_model.p_sticky = 1.0 }
        site env ~binary_path:path ~mode:(Feam_dynlinker.Exec.Mpi 4) );
  Alcotest.(check (float 1e-6)) "five attempts"
    (5.0 *. (queue_wait +. Cost.probe_run_mpi))
    (Sim_clock.elapsed clock)

let test_source_phase_charges_copies () =
  (* the source phase charges for tool calls, probe compiles and the
     per-megabyte library copies *)
  let site, installs = Fixtures.small_site ~name:"chargesrc" () in
  let path, install =
    Fixtures.compiled_binary ~program:Fixtures.fortran_program site installs
  in
  let env = Fixtures.session_env site install in
  let clock = Sim_clock.create () in
  let bundle =
    Fixtures.run_exn
      ( Effects.with_clock clock @@ fun () ->
        Feam_core.Phases.source_phase Feam_core.Config.default site env
          ~binary_path:path )
  in
  let elapsed = Sim_clock.elapsed clock in
  let copy_cost =
    Cost.copy_per_mb
    *. (float_of_int (Feam_core.Bundle.library_bytes bundle) /. 1048576.0)
  in
  Alcotest.(check bool) "charged at least the copies" true (elapsed >= copy_cost);
  Alcotest.(check bool) "under five minutes" true (elapsed < 300.0)

let test_ldd_transcript_golden () =
  let site, installs = Fixtures.small_site ~name:"lddgold" () in
  let path, install = Fixtures.compiled_binary site installs in
  let env = Fixtures.session_env site install in
  let r = Result.get_ok (Feam_dynlinker.Ldd.run site env path) in
  List.iter
    (fun (name, path) ->
      Alcotest.(check (option string)) name (Some path) (Fixtures.ldd_path r name))
    [
      ("libmpi.so.0", "/opt/openmpi-1.4-gnu/lib/libmpi.so.0");
      ("libc.so.6", "/lib64/libc.so.6");
      (* transitive dependency of libmpi, not a direct NEEDED *)
      ("libopen-pal.so.0", "/opt/openmpi-1.4-gnu/lib/libopen-pal.so.0");
    ];
  (* the version information: libc.so.6 (GLIBC_2.2.5) binds *)
  Alcotest.(check bool) "GLIBC_2.2.5 required from libc.so.6" true
    (List.exists
       (fun vn ->
         vn.Feam_elf.Spec.vn_file = "libc.so.6"
         && List.mem "GLIBC_2.2.5" vn.Feam_elf.Spec.vn_versions)
       r.Feam_dynlinker.Resolve.root_spec.Feam_elf.Spec.verneeds);
  Alcotest.(check int) "no version failures" 0
    (List.length r.Feam_dynlinker.Resolve.version_failures)

let test_paper_tables_render () =
  let params = Feam_evalharness.Params.default in
  let sites = Feam_evalharness.Sites.build_all params in
  let benchmarks = [ List.hd Feam_suites.Npb.all ] in
  let binaries = Feam_evalharness.Testset.build params sites benchmarks in
  let migrations = Feam_evalharness.Migrate.run_all params sites binaries in
  let t1, note = Feam_evalharness.Tables.table1 binaries in
  Alcotest.(check bool) "table1" true (String.length (Table.render t1) > 0);
  Alcotest.(check bool) "table1 note 100%" true
    (Str_split.contains ~sub:"100%" note);
  List.iter
    (fun t -> Alcotest.(check bool) "renders" true (String.length (Table.render t) > 0))
    [
      Feam_evalharness.Tables.table2 sites;
      Feam_evalharness.Tables.table3 migrations;
      Feam_evalharness.Tables.table4 migrations;
      Feam_evalharness.Tables.accuracy_by_site migrations;
      Feam_evalharness.Tables.failure_breakdown migrations;
      Feam_evalharness.Corpus_stats.table sites binaries;
    ];
  (* Table II carries the paper's published site facts *)
  let t2 = Table.render (Feam_evalharness.Tables.table2 sites) in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) fragment true (Str_split.contains ~sub:fragment t2))
    [ "ranger"; "2.3.4"; "SUSE Linux Enterprise Server 11"; "mvapich2-1.7a-pgi" ]

let suite =
  ( "accounting",
    [
      Alcotest.test_case "exec charges per attempt" `Quick test_exec_charges_per_attempt;
      Alcotest.test_case "source phase charges copies" `Quick
        test_source_phase_charges_copies;
      Alcotest.test_case "ldd transcript golden" `Quick test_ldd_transcript_golden;
      Alcotest.test_case "paper tables render" `Slow test_paper_tables_render;
    ] )
