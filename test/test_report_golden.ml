(* Golden-output tests: the exact rendered report and setup script for a
   canonical migration, plus the configuration-file round trip. *)

open Feam_sysmodel
open Feam_core

let test_setup_script_golden () =
  let plan =
    {
      Predict.chosen_stack_slug = Some "openmpi-1.4-gnu";
      module_loads = [ "openmpi-1.4-gnu" ];
      ld_library_path_additions = [ "/tmp/feam/staged_libs" ];
      staged_copies =
        [ ("libgfortran.so.1", "/tmp/feam/staged_libs/libgfortran.so.1") ];
      launcher = "mpiexec";
    }
  in
  let expected =
    "#!/bin/sh\n\
     # Generated by FEAM: site configuration for predicted-ready execution\n\
     module load openmpi-1.4-gnu\n\
     export LD_LIBRARY_PATH=/tmp/feam/staged_libs:$LD_LIBRARY_PATH\n\
     # staged library copies:\n\
     #   libgfortran.so.1 -> /tmp/feam/staged_libs/libgfortran.so.1\n\
     exec mpiexec -n \"${NP:-4}\" /home/user/bin/solver \"$@\"\n"
  in
  let prediction =
    {
      Predict.verdict = Predict.Ready plan;
      determinants =
        {
          Predict.isa =
            {
              Predict.isa_compatible = true;
              binary_machine = Feam_elf.Types.X86_64;
              binary_class = Feam_elf.Types.C64;
              site_machine = Some Feam_elf.Types.X86_64;
            };
          stack = None;
          clib =
            { Predict.clib_compatible = true; required = None; available = None };
          libs = None;
        };
    }
  in
  let report =
    Report.make ~site_name:"india" ~binary:"/home/user/bin/solver" prediction
  in
  Alcotest.(check (option string)) "script" (Some expected)
    report.Report.setup_script

let test_not_ready_report_golden () =
  let prediction =
    {
      Predict.verdict =
        Predict.Not_ready [ "C library too old: binary requires 2.7, site has 2.5" ];
      determinants =
        {
          Predict.isa =
            {
              Predict.isa_compatible = true;
              binary_machine = Feam_elf.Types.X86_64;
              binary_class = Feam_elf.Types.C64;
              site_machine = Some Feam_elf.Types.X86_64;
            };
          stack = None;
          clib =
            {
              Predict.clib_compatible = false;
              required = Some (Feam_util.Version.of_string_exn "2.7");
              available = Some (Feam_util.Version.of_string_exn "2.5");
            };
          libs = None;
        };
    }
  in
  let report = Report.make ~site_name:"india" ~binary:"/home/user/app" prediction in
  let text = Report.render report in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) fragment true
        (Str_split.contains ~sub:fragment text))
    [
      "site:   india";
      "prediction: NOT READY";
      "- C library too old: binary requires 2.7, site has 2.5";
      "2) MPI stack: not evaluated";
      "3) C library compatible: false (requires 2.7, site has 2.5)";
    ];
  Alcotest.(check bool) "no setup script" true (report.Report.setup_script = None)

let test_config_roundtrip () =
  let config =
    {
      Config.phase = Config.Both_phases;
      binary_path = Some "/home/u/bt.A";
      serial_queue = Some "debug";
      parallel_queue = Some "batch";
      launcher_overrides = [ (Feam_mpi.Impl.Mvapich2, "mpirun_rsh") ];
      staging_dir = "/scratch/feam";
      probe_np = 8;
    }
  in
  let config' = Result.get_ok (Config.of_file_body (Config.to_file_body config)) in
  Alcotest.(check bool) "phase" true (config'.Config.phase = Config.Both_phases);
  Alcotest.(check (option string)) "binary" (Some "/home/u/bt.A")
    config'.Config.binary_path;
  Alcotest.(check (option string)) "serial queue" (Some "debug")
    config'.Config.serial_queue;
  Alcotest.(check string) "staging" "/scratch/feam" config'.Config.staging_dir;
  Alcotest.(check int) "np" 8 config'.Config.probe_np;
  Alcotest.(check string) "launcher override" "mpirun_rsh"
    (Config.launcher config' Feam_mpi.Impl.Mvapich2)

let test_config_default_roundtrip () =
  let config' =
    Result.get_ok (Config.of_file_body (Config.to_file_body Config.default))
  in
  Alcotest.(check bool) "phase" true (config'.Config.phase = Config.default.Config.phase);
  Alcotest.(check string) "staging" Config.default.Config.staging_dir
    config'.Config.staging_dir

let suite =
  ( "report-golden",
    [
      Alcotest.test_case "setup script golden" `Quick test_setup_script_golden;
      Alcotest.test_case "not-ready report golden" `Quick test_not_ready_report_golden;
      Alcotest.test_case "config roundtrip" `Quick test_config_roundtrip;
      Alcotest.test_case "config default roundtrip" `Quick test_config_default_roundtrip;
    ] )
