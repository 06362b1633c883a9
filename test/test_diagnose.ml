(* Tests for the remediation guidance and the queue selection of probe
   submissions. *)

open Feam_sysmodel
open Feam_core

let not_ready_prediction ~isa_ok ~clib_ok ~stack ~libs =
  {
    Predict.verdict = Predict.Not_ready [ "test" ];
    determinants =
      {
        Predict.isa =
          {
            Predict.isa_compatible = isa_ok;
            binary_machine = Feam_elf.Types.PPC64;
            binary_class = Feam_elf.Types.C64;
            site_machine = Some Feam_elf.Types.X86_64;
          };
        stack;
        clib =
          {
            Predict.clib_compatible = clib_ok;
            required = Some (Feam_util.Version.of_string_exn "2.7");
            available = Some (Feam_util.Version.of_string_exn "2.5");
          };
        libs;
      };
  }

(* The remediation guidance as rendered: one (severity, action) pair per
   "  [severity] action" line. *)
let remedies p =
  String.split_on_char '\n' (Diagnose.render p)
  |> List.filter_map (fun line ->
         match String.index_opt line ']' with
         | Some close when String.starts_with ~prefix:"  [" line ->
           Some
             ( String.sub line 3 (close - 3),
               String.sub line (close + 2) (String.length line - close - 2) )
         | _ -> None)

let test_isa_remedy () =
  let p = not_ready_prediction ~isa_ok:false ~clib_ok:true ~stack:None ~libs:None in
  match remedies p with
  | [ r ] ->
    Alcotest.(check bool) "needs rebuild" true (fst r = "needs rebuild");
    Alcotest.(check bool) "mentions machine" true
      (Str_split.contains ~sub:"ppc64" (snd r))
  | l -> Alcotest.failf "expected one remedy, got %d" (List.length l)

let test_clib_remedy () =
  let p = not_ready_prediction ~isa_ok:true ~clib_ok:false ~stack:None ~libs:None in
  match remedies p with
  | [ r ] ->
    Alcotest.(check bool) "needs admin" true
      (fst r = "needs administrator");
    Alcotest.(check bool) "versions in text" true
      (Str_split.contains ~sub:"2.7" (snd r)
      && Str_split.contains ~sub:"2.5" (snd r))
  | l -> Alcotest.failf "expected one remedy, got %d" (List.length l)

let test_stack_remedies () =
  let stack =
    Some
      {
        Predict.stack_compatible = false;
        requested_impl = Some Feam_mpi.Impl.Mvapich2;
        candidates_found = [];
        functioning = None;
        probe_failures = [];
      }
  in
  let p = not_ready_prediction ~isa_ok:true ~clib_ok:true ~stack ~libs:None in
  match remedies p with
  | [ r ] ->
    Alcotest.(check bool) "names the implementation" true
      (Str_split.contains ~sub:"MVAPICH2" (snd r))
  | l -> Alcotest.failf "expected one remedy, got %d" (List.length l)

let test_libs_remedies () =
  let libs =
    Some
      {
        Predict.libs_compatible = false;
        missing = [ "libpgc.so"; "libgfortran.so.3" ];
        resolved_by_copies = [];
        unresolved =
          [
            ("libpgc.so", "no source-phase bundle available");
            ("libgfortran.so.3", "copy requires C library 2.6, target has 2.5");
          ];
      }
  in
  let p = not_ready_prediction ~isa_ok:true ~clib_ok:true ~stack:None ~libs in
  match remedies p with
  | [ a; b ] ->
    Alcotest.(check bool) "copy fix is user-fixable" true
      (fst a = "user-fixable");
    Alcotest.(check bool) "clib-rejected copy needs rebuild" true
      (fst b = "needs rebuild")
  | l -> Alcotest.failf "expected two remedies, got %d" (List.length l)

let test_ready_has_no_remedies () =
  let p =
    {
      Predict.verdict =
        Predict.Ready
          {
            Predict.chosen_stack_slug = None;
            module_loads = [];
            ld_library_path_additions = [];
            staged_copies = [];
            launcher = "";
          };
      determinants =
        (not_ready_prediction ~isa_ok:true ~clib_ok:true ~stack:None ~libs:None)
          .Predict.determinants;
    }
  in
  Alcotest.(check int) "none" 0 (List.length (remedies p));
  Alcotest.(check bool) "render" true
    (Str_split.contains ~sub:"no remediation needed" (Diagnose.render p))

let test_report_includes_remediation () =
  let p = not_ready_prediction ~isa_ok:false ~clib_ok:true ~stack:None ~libs:None in
  let report = Report.make ~site_name:"s" ~binary:"/b" p in
  Alcotest.(check bool) "guidance rendered" true
    (Str_split.contains ~sub:"remediation guidance" (Report.render report))

(* -- probe queue selection ------------------------------------------------- *)

let test_probe_queue_selection () =
  let batch =
    Batch.make
      ~queues:
        [
          { Batch.queue_name = "debug"; wait_seconds = 5.0 };
          { Batch.queue_name = "wide"; wait_seconds = 300.0 };
        ]
  in
  let site =
    Site.make ~world:Fixtures.world ~compilers:[ Fixtures.gnu412 ] ~seed:1
      ~fault_model:Fault_model.none ~machine:Feam_elf.Types.X86_64
      ~distro:
        (Distro.make Distro.Centos
           ~version:(Feam_util.Version.of_string_exn "5.6")
           ~kernel:(Feam_util.Version.of_string_exn "2.6.18"))
      ~glibc:(Feam_util.Version.of_string_exn "2.5")
      ~interconnect:Feam_mpi.Interconnect.Ethernet ~batch "queued"
  in
  let installs =
    Feam_toolchain.Provision.provision_site site
      ~stacks:[ (Fixtures.ompi14 Fixtures.gnu412, Stack_install.Functioning) ]
  in
  let config_default = Config.default in
  let queue name = { Config.default with Config.parallel_queue = Some name } in
  (* the native probe waits in the queue it is submitted to *)
  let install = List.hd installs in
  let run config =
    let clock = Feam_util.Sim_clock.create () in
    ignore
      ( Feam_util.Effects.with_clock clock @@ fun () ->
        Probe.test_stack config site (Site.base_env site) install ~bundle:None
          ~target_glibc:None );
    Feam_util.Sim_clock.elapsed clock
  in
  Alcotest.(check bool) "wide queue costs more" true
    (run (queue "wide") > run config_default +. 200.0);
  (* a configured queue the site lacks falls back to the default *)
  Alcotest.(check (float 1e-9)) "absent queue falls back"
    (run config_default) (run (queue "absent"))

let suite =
  ( "diagnose",
    [
      Alcotest.test_case "ISA remedy" `Quick test_isa_remedy;
      Alcotest.test_case "C library remedy" `Quick test_clib_remedy;
      Alcotest.test_case "stack remedies" `Quick test_stack_remedies;
      Alcotest.test_case "library remedies" `Quick test_libs_remedies;
      Alcotest.test_case "ready has none" `Quick test_ready_has_no_remedies;
      Alcotest.test_case "report includes guidance" `Quick test_report_includes_remediation;
      Alcotest.test_case "probe queue selection" `Quick test_probe_queue_selection;
    ] )
