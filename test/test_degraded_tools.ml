(* Degraded-tool worlds: the paper stresses that every piece of
   information is gathered "in multiple ways ... in case some tools are
   not present" (§V).  These tests run the full extended pipeline on
   fault-free worlds whose sites lack various utilities and assert that
   the fallbacks preserve the prediction = ground-truth property. *)

open Feam_sysmodel
open Feam_core

let config = Config.default

(* Truly fault-free: the property under test is the tool-fallback chain,
   so the stochastic system-error channels are disabled rather than
   relying on lucky draws. *)
let world ~home_tools ~target_tools =
  let home, home_installs =
    Fixtures.small_site ~name:"dhome" ~tools:home_tools
      ~fault_model:Fault_model.none ()
  in
  let target, _ =
    let site, installs =
      Fixtures.small_site ~name:"dtarget" ~glibc:"2.12" ~tools:target_tools
        ~fault_model:Fault_model.none ()
    in
    (site, installs)
  in
  let path, install =
    Fixtures.compiled_binary ~program:Fixtures.fortran_program home home_installs
  in
  (home, path, install, target)

let run_pipeline home path install target =
  let env = Fixtures.session_env home install in
  let bundle =
    Fixtures.run_exn (Phases.source_phase config home env ~binary_path:path)
  in
  Vfs.remove_tree (Site.vfs target) "/tmp/feam";
  let report =
    Fixtures.run_exn
      (Phases.target_phase config target (Site.base_env target) ~bundle ())
  in
  let p = Report.prediction report in
  (* ground truth under FEAM's configuration *)
  let actual =
    match p.Predict.verdict with
    | Predict.Ready plan ->
      let install =
        Option.get
          (Site.find_stack_install target
             ~slug:(Option.get plan.Predict.chosen_stack_slug))
      in
      let env = Fixtures.session_env target install in
      let env =
        List.fold_left
          (fun e d -> Env.prepend_path e "LD_LIBRARY_PATH" d)
          env plan.Predict.ld_library_path_additions
      in
      Feam_dynlinker.Exec.run target env
        ~binary_path:"/tmp/feam/binary/fapp" ~mode:(Feam_dynlinker.Exec.Mpi 4)
    | Predict.Not_ready _ -> Feam_dynlinker.Exec.Failure Feam_dynlinker.Exec.No_mpi_stack
  in
  (p, actual)

let check_sound name (p, actual) =
  let predicted = Predict.is_ready p in
  let ran = actual = Feam_dynlinker.Exec.Success in
  Alcotest.(check bool) (name ^ ": prediction = ground truth") predicted ran;
  Alcotest.(check bool) (name ^ ": predicted ready") true predicted

let test_no_ldd () =
  let tools = { Tools.full with Tools.ldd = false } in
  let home, path, install, target = world ~home_tools:tools ~target_tools:tools in
  check_sound "no ldd" (run_pipeline home path install target)

let test_no_locate () =
  let tools = { Tools.full with Tools.locate = false } in
  let home, path, install, target = world ~home_tools:tools ~target_tools:tools in
  check_sound "no locate" (run_pipeline home path install target)

let test_no_readelf () =
  (* without readelf the build provenance is unknown: candidate ordering
     loses the compiler-family hint but prediction soundness holds *)
  let tools = { Tools.full with Tools.readelf = false } in
  let home, path, install, target = world ~home_tools:tools ~target_tools:tools in
  check_sound "no readelf" (run_pipeline home path install target)

let test_no_ldd_nor_locate () =
  let tools = { Tools.full with Tools.locate = false; ldd = false } in
  let home, path, install, target = world ~home_tools:tools ~target_tools:tools in
  check_sound "no ldd nor locate" (run_pipeline home path install target)

let test_no_objdump_target () =
  (* objdump missing only at the target: the bundle carries the
     description from home, so the target phase still works *)
  let target_tools = { Tools.full with Tools.objdump = false } in
  let home, path, install, target =
    world ~home_tools:Tools.full ~target_tools
  in
  check_sound "no objdump at target" (run_pipeline home path install target)

let test_no_compiler_at_target () =
  (* no native compiler at the target: native probes are impossible but
     the shipped probes still verify the stack (paper §III.B: "if that
     is not possible, we use basic MPI programs compiled at other
     sites") *)
  let target_tools = { Tools.full with Tools.c_compiler = false } in
  let home, path, install, target =
    world ~home_tools:Tools.full ~target_tools
  in
  check_sound "no compiler at target" (run_pipeline home path install target)

let suite =
  ( "degraded-tools",
    [
      Alcotest.test_case "no ldd" `Quick test_no_ldd;
      Alcotest.test_case "no locate" `Quick test_no_locate;
      Alcotest.test_case "no readelf" `Quick test_no_readelf;
      Alcotest.test_case "no ldd nor locate" `Quick test_no_ldd_nor_locate;
      Alcotest.test_case "no objdump at target" `Quick test_no_objdump_target;
      Alcotest.test_case "no compiler at target" `Quick test_no_compiler_at_target;
    ] )
