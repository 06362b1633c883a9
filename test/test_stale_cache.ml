(* The stale-ldconfig channel: an administrator registered a runtime
   directory in ld.so.conf but forgot to run ldconfig.  The library is on
   disk yet invisible to the loader; execution fails with a missing
   library, FEAM (whose checks read the loader's truth) predicts exactly
   that, and the resolution model repairs it with a bundle copy. *)

open Feam_sysmodel
open Feam_core

let config = Config.default

(* Home and target both use Intel stacks; the target's Intel runtime
   directory is registered but uncached. *)
let world () =
  let make name =
    let site =
      Site.make ~world:Fixtures.world ~compilers:[ Fixtures.intel11 ] ~seed:4
        ~fault_model:Fault_model.none ~machine:Feam_elf.Types.X86_64
        ~distro:
          (Distro.make Distro.Centos
             ~version:(Feam_util.Version.of_string_exn "5.6")
             ~kernel:(Feam_util.Version.of_string_exn "2.6.18"))
        ~glibc:(Feam_util.Version.of_string_exn "2.5")
        ~interconnect:Feam_mpi.Interconnect.Infiniband
        ~batch:Fixtures.default_batch name
    in
    let installs =
      Feam_toolchain.Provision.provision_site site
        ~stacks:[ (Fixtures.ompi14 Fixtures.intel11, Stack_install.Functioning) ]
    in
    (site, List.hd installs)
  in
  let home, home_install = make "cachehome" in
  let target, target_install = make "cachetarget" in
  Site.set_ld_cache_current target false;
  (home, home_install, target, target_install)

let compile_at home home_install =
  Result.get_ok
    (Feam_toolchain.Compile.compile_mpi_to home home_install
       (Feam_toolchain.Compile.program "intel_app")
       ~dir:"/home/user/bin")

let test_library_on_disk_but_unloadable () =
  let _, _, target, target_install = world () in
  (* the Intel runtime exists on disk... *)
  Alcotest.(check bool) "libimf on disk" true
    (Vfs.exists (Site.vfs target) "/opt/intel-11.1/lib/libimf.so");
  Alcotest.(check bool) "dir registered" true
    (List.mem "/opt/intel-11.1/lib" (Site.ld_conf_dirs target));
  (* ...but the loader cannot see it *)
  Alcotest.(check (list string)) "cache empty" [] (Site.ld_cache_dirs target);
  ignore target_install

let test_execution_fails_missing () =
  let home, home_install, target, target_install = world () in
  let path = compile_at home home_install in
  let bytes =
    match Vfs.find (Site.vfs home) path with
    | Some { Vfs.kind = Vfs.Elf b; _ } -> b
    | _ -> assert false
  in
  Vfs.add (Site.vfs target) "/home/user/intel_app" (Vfs.Elf bytes);
  let env = Fixtures.session_env target target_install in
  match
    Feam_dynlinker.Exec.run ~params:Fault_model.none target env
      ~binary_path:"/home/user/intel_app" ~mode:(Feam_dynlinker.Exec.Mpi 4)
  with
  | Feam_dynlinker.Exec.Failure (Feam_dynlinker.Exec.Missing_libraries libs) ->
    Alcotest.(check bool) "intel runtime missing" true (List.mem "libimf.so" libs)
  | o -> Alcotest.failf "unexpected: %s" (Feam_dynlinker.Exec.outcome_to_string o)

let test_feam_detects_and_repairs () =
  let home, home_install, target, _ = world () in
  let path = compile_at home home_install in
  let env = Fixtures.session_env home home_install in
  let bundle =
    Fixtures.run_exn (Phases.source_phase config home env ~binary_path:path)
  in
  Vfs.remove_tree (Site.vfs target) "/tmp/feam";
  let report =
    Fixtures.run_exn
      (Phases.target_phase config target (Site.base_env target) ~bundle ())
  in
  let p = Report.prediction report in
  Alcotest.(check bool) "predicted ready via resolution" true (Predict.is_ready p);
  match p.Predict.verdict with
  | Predict.Ready plan ->
    (* the Intel runtime was staged from the bundle *)
    Alcotest.(check bool) "libimf staged" true
      (List.mem_assoc "libimf.so" plan.Predict.staged_copies);
    (* and the run under FEAM's configuration succeeds *)
    let install = List.hd (Site.stack_installs target) in
    let env = Fixtures.session_env target install in
    let env =
      List.fold_left
        (fun e d -> Env.prepend_path e "LD_LIBRARY_PATH" d)
        env plan.Predict.ld_library_path_additions
    in
    (match
       Feam_dynlinker.Exec.run ~params:Fault_model.none target env
         ~binary_path:"/tmp/feam/binary/intel_app" ~mode:(Feam_dynlinker.Exec.Mpi 4)
     with
    | Feam_dynlinker.Exec.Success -> ()
    | o -> Alcotest.failf "unexpected: %s" (Feam_dynlinker.Exec.outcome_to_string o))
  | Predict.Not_ready reasons ->
    Alcotest.failf "not ready: %s" (String.concat "; " reasons)

let test_fresh_cache_needs_no_copies () =
  (* control: with a current cache, nothing is missing and nothing is
     staged *)
  let home, home_install, target, _ = world () in
  Site.set_ld_cache_current target true;
  let path = compile_at home home_install in
  let env = Fixtures.session_env home home_install in
  let bundle =
    Fixtures.run_exn (Phases.source_phase config home env ~binary_path:path)
  in
  Vfs.remove_tree (Site.vfs target) "/tmp/feam";
  let report =
    Fixtures.run_exn
      (Phases.target_phase config target (Site.base_env target) ~bundle ())
  in
  match (Report.prediction report).Predict.verdict with
  | Predict.Ready plan ->
    Alcotest.(check (list string)) "nothing staged" []
      (List.map fst plan.Predict.staged_copies)
  | Predict.Not_ready reasons ->
    Alcotest.failf "not ready: %s" (String.concat "; " reasons)

let suite =
  ( "stale-cache",
    [
      Alcotest.test_case "on disk but unloadable" `Quick
        test_library_on_disk_but_unloadable;
      Alcotest.test_case "execution fails missing" `Quick test_execution_fails_missing;
      Alcotest.test_case "FEAM detects and repairs" `Quick test_feam_detects_and_repairs;
      Alcotest.test_case "fresh cache control" `Quick test_fresh_cache_needs_no_copies;
    ] )
