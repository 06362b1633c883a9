(* Tests for the scenario-file DSL. *)

open Feam_sysmodel
open Feam_evalharness

let v = Feam_util.Version.of_string_exn

let test_template_loads () =
  let sites = Fixtures.run_exn (Scenario.load Scenario.template) in
  Alcotest.(check int) "two sites" 2 (List.length sites);
  let home = List.hd sites in
  Alcotest.(check string) "name" "home" (Site.name home);
  Alcotest.check Fixtures.version "glibc" (v "2.5") (Site.glibc home);
  Alcotest.(check int) "one stack" 1 (List.length (Site.stack_installs home));
  (* the site is actually provisioned *)
  Alcotest.(check bool) "libc present" true
    (Vfs.exists (Site.vfs home) "/lib64/libc.so.6");
  Alcotest.(check bool) "module files" true
    (Vfs.exists (Site.vfs home) "/usr/share/Modules/modulefiles/openmpi-1.4-gnu")

let test_full_directives () =
  let text =
    "site big\n\
     machine ppc64\n\
     distro sles 11 kernel 2.6.32\n\
     glibc 2.11.1\n\
     interconnect numalink\n\
     compiler gnu 4.4.3\n\
     compiler intel 11.1\n\
     stack openmpi 1.4 intel\n\
     stack mpich2 1.4 gnu\n\
     modules softenv\n\
     queue debug 30\n\
     queue batch 1200\n\
     faults default\n\
     seed 99\n"
  in
  let sites = Fixtures.run_exn (Scenario.load text) in
  let site = List.hd sites in
  Alcotest.(check bool) "ppc64" true (Site.machine site = Feam_elf.Types.PPC64);
  Alcotest.(check bool) "softenv" true (Site.modules_flavor site = Site.Softenv);
  Alcotest.(check int) "two stacks" 2 (List.length (Site.stack_installs site));
  Alcotest.(check int) "two compilers" 2 (List.length (Site.compilers site));
  Alcotest.(check string) "debug queue" "debug"
    (Batch.debug_queue (Site.batch site)).Batch.queue_name;
  Alcotest.(check bool) "fault model" true
    (Site.fault_model site = Fault_model.default);
  (* the seed drives the site's transient-fault draws *)
  let keys = List.init 32 string_of_int in
  let draw seed k = Feam_util.Prng.keyed_bool ~seed ~p:0.5 ("big/" ^ k) in
  List.iter
    (fun k ->
      Alcotest.(check bool) ("seeded draw " ^ k) (draw 99 k) (Site.keyed_bool site ~p:0.5 k))
    keys;
  Alcotest.(check bool) "seed 99 is not the default stream" true
    (List.exists (fun k -> draw 99 k <> draw 0 k) keys)

let test_parse_errors () =
  let reject text fragment =
    match Scenario.load text with
    | Error e ->
      Alcotest.(check bool) ("mentions " ^ fragment) true
        (Str_split.contains ~sub:fragment e)
    | Ok _ -> Alcotest.failf "accepted %S" text
  in
  reject "" "no sites";
  reject "glibc 2.5\n" "outside a site block";
  reject "site s\nmachine vax\n" "unknown machine";
  reject "site s\nstack openmpi 1.4 gnu\n" "not declared";
  reject "site s\nbogus directive here extra\n" "unrecognized directive";
  reject "site s\nqueue debug soon\n" "bad queue wait"

let test_comments_and_blanks () =
  let text = "# header comment\n\nsite s\n  # indented comment\n  glibc 2.5\n" in
  let sites = Fixtures.run_exn (Scenario.load text) in
  Alcotest.(check int) "one site" 1 (List.length sites)

let test_scenario_drives_feam () =
  (* end to end: template world, migrate the sample binary *)
  let sites = Fixtures.run_exn (Scenario.load Scenario.template) in
  let home = List.nth sites 0 and target = List.nth sites 1 in
  let install = List.hd (Site.stack_installs home) in
  let program = Feam_toolchain.Compile.program ~language:Feam_mpi.Stack.Fortran "app" in
  let path =
    Result.get_ok
      (Feam_toolchain.Compile.compile_mpi_to home install program ~dir:"/home/u")
  in
  let env = Fixtures.session_env home install in
  let bundle =
    Fixtures.run_exn
      (Feam_core.Phases.source_phase Feam_core.Config.default home env
         ~binary_path:path)
  in
  let report =
    Fixtures.run_exn
      (Feam_core.Phases.target_phase Feam_core.Config.default target
         (Site.base_env target) ~bundle ())
  in
  Alcotest.(check bool) "ready" true
    (Feam_core.Predict.is_ready (Feam_core.Report.prediction report))

let suite =
  ( "scenario",
    [
      Alcotest.test_case "template loads" `Quick test_template_loads;
      Alcotest.test_case "full directives" `Quick test_full_directives;
      Alcotest.test_case "parse errors" `Quick test_parse_errors;
      Alcotest.test_case "comments and blanks" `Quick test_comments_and_blanks;
      Alcotest.test_case "scenario drives FEAM" `Quick test_scenario_drives_feam;
    ] )
