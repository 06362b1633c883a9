(* Tests for statically linked binaries (paper §VI.C: only available at
   sites where the MPI implementation was installed with static
   libraries) and FEAM's documented behaviour on them. *)

open Feam_sysmodel
open Feam_core

let static_site () =
  let site =
    Site.make ~compilers:[ Fixtures.gnu412 ] ~seed:2
      ~fault_model:Fault_model.none ~machine:Feam_elf.Types.X86_64
      ~distro:
        (Distro.make Distro.Centos
           ~version:(Feam_util.Version.of_string_exn "5.6")
           ~kernel:(Feam_util.Version.of_string_exn "2.6.18"))
      ~glibc:(Feam_util.Version.of_string_exn "2.5")
      ~interconnect:Feam_mpi.Interconnect.Ethernet ~batch:Fixtures.default_batch
      "statichome"
  in
  ignore (Feam_toolchain.Provision.provision_site site ~stacks:[]);
  let install =
    Feam_toolchain.Provision.provision_stack site ~static_libs:true
      (Fixtures.ompi14 Fixtures.gnu412)
  in
  Modules_tool.provision site;
  (site, install)

let program = Feam_toolchain.Compile.program "staticapp"

let test_static_requires_archives () =
  let site, installs = Fixtures.small_site () in
  ignore site;
  (* the default fixture installs ship no static libraries *)
  match
    Feam_toolchain.Compile.compile_mpi_static site (List.hd installs) program
  with
  | Error Feam_toolchain.Compile.No_static_libraries -> ()
  | _ -> Alcotest.fail "expected No_static_libraries"

let test_static_binary_has_no_dependencies () =
  let site, install = static_site () in
  ignore site;
  let image =
    Result.get_ok (Feam_toolchain.Compile.compile_mpi_static site install program)
  in
  let spec = Result.get_ok (Feam_elf.Reader.spec_of_bytes image) in
  Alcotest.(check (list string)) "no NEEDED" [] spec.Feam_elf.Spec.needed;
  Alcotest.(check bool) "no verneeds" true (spec.Feam_elf.Spec.verneeds = []);
  Alcotest.(check (option string)) "no interpreter" None spec.Feam_elf.Spec.interp

let test_static_binary_runs_anywhere_with_stack () =
  (* a static binary migrated to a site with the matching implementation
     runs even though none of its libraries exist there *)
  let home, install = static_site () in
  ignore home;
  let image =
    Result.get_ok (Feam_toolchain.Compile.compile_mpi_static home install program)
  in
  let target, target_installs =
    Fixtures.small_site ~name:"statictarget" ~glibc:"2.3.4" ()
  in
  Vfs.add (Site.vfs target) "/home/user/staticapp" (Vfs.Elf image);
  let env = Fixtures.session_env target (List.hd target_installs) in
  match
    Feam_dynlinker.Exec.run ~params:Fault_model.none target env
      ~binary_path:"/home/user/staticapp" ~mode:(Feam_dynlinker.Exec.Mpi 4)
  with
  | Feam_dynlinker.Exec.Success -> ()
  | o -> Alcotest.failf "unexpected: %s" (Feam_dynlinker.Exec.outcome_to_string o)

let test_feam_sees_static_as_dependency_free () =
  (* FEAM's link-level identification has nothing to work with on a
     static binary: the description shows no MPI implementation — the
     documented limit of the Table I scheme. *)
  let home, install = static_site () in
  let image =
    Result.get_ok (Feam_toolchain.Compile.compile_mpi_static home install program)
  in
  Vfs.add (Site.vfs home) "/home/user/staticapp" (Vfs.Elf image);
  let d =
    Fixtures.run_exn
      (Bdc.describe home (Site.base_env home) ~path:"/home/user/staticapp")
  in
  Alcotest.(check (list string)) "no needed" [] d.Description.needed;
  Alcotest.(check bool) "no MPI fingerprint" true (d.Description.mpi = None)

let suite =
  ( "static-linking",
    [
      Alcotest.test_case "requires archives" `Quick test_static_requires_archives;
      Alcotest.test_case "no dependencies" `Quick test_static_binary_has_no_dependencies;
      Alcotest.test_case "runs anywhere with stack" `Quick
        test_static_binary_runs_anywhere_with_stack;
      Alcotest.test_case "FEAM sees no fingerprint" `Quick
        test_feam_sees_static_as_dependency_free;
    ] )
