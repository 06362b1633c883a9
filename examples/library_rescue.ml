(* Library rescue: a step-by-step walk through the resolution model
   (paper §IV).

   A Fortran binary built with gcc 4.1 needs libgfortran.so.1; the target
   runs gcc 4.4 and ships only libgfortran.so.3.  We show the binary
   failing on the pristine target, FEAM vetting and staging a copy from
   the guaranteed environment, and the binary running afterwards — plus a
   counter-example where the copy is rejected because it needs a newer C
   library than the target has.

     dune exec examples/library_rescue.exe *)

open Feam_util
open Feam_sysmodel
open Feam_mpi

let v = Version.of_string_exn

let batch =
  Batch.make ~queues:[ { Batch.queue_name = "debug"; wait_seconds = 5.0 } ]

(* The sites below are built together: one build world. *)
let world = Build_world.create ()

let make_site ~name ~glibc ~gcc ~distro_version ~seed =
  let compiler = Compiler.make Compiler.Gnu (v gcc) in
  let stack =
    Stack.make ~impl:Impl.Open_mpi ~impl_version:(v "1.4") ~compiler
      ~interconnect:Interconnect.Ethernet
  in
  let site =
    Site.make ~world ~compilers:[ compiler ] ~seed ~fault_model:Fault_model.none
      ~machine:Feam_elf.Types.X86_64
      ~distro:(Distro.make Distro.Rhel ~version:(v distro_version) ~kernel:(v "2.6.18"))
      ~glibc:(v glibc) ~interconnect:Interconnect.Ethernet ~batch name
  in
  let installs =
    Feam_toolchain.Provision.provision_site site
      ~stacks:[ (stack, Stack_install.Functioning) ]
  in
  (site, List.hd installs)

let quiet = { Feam_dynlinker.Exec.p_transient = 0.0; p_sticky = 0.0; p_copy_abi = 0.0 }

let run site env path =
  Feam_dynlinker.Exec.outcome_to_string
    (Feam_dynlinker.Exec.run ~params:quiet site env ~binary_path:path
       ~mode:(Feam_dynlinker.Exec.Mpi 4))

let () =
  let home, home_install =
    make_site ~name:"home" ~glibc:"2.5" ~gcc:"4.1.2" ~distro_version:"5.6" ~seed:4
  in
  let target, target_install =
    make_site ~name:"target" ~glibc:"2.12" ~gcc:"4.4.5" ~distro_version:"6.1" ~seed:4
  in
  let program = Feam_toolchain.Compile.program ~language:Stack.Fortran "cfdapp" in
  let home_path =
    Result.get_ok (Feam_toolchain.Compile.compile_mpi_to home home_install program
        ~dir:"/home/user/bin")
  in
  Fmt.pr "[1] Built %s at home (gcc 4.1.2: needs libgfortran.so.1)@.@." home_path;

  (* migrate by hand and try to run: missing library *)
  let bytes =
    match Vfs.find (Site.vfs home) home_path with
    | Some { Vfs.kind = Vfs.Elf b; _ } -> b
    | _ -> assert false
  in
  let staged = "/home/user/bin/cfdapp" in
  Vfs.add (Site.vfs target) staged (Vfs.Elf bytes);
  let env = Modules_tool.load_stack (Site.base_env target) target_install in
  Fmt.pr "[2] Naive run at target (gcc 4.4.5 site): %s@.@." (run target env staged);

  (* FEAM: source phase gathers copies; target phase resolves *)
  let config = Feam_core.Config.default in
  let home_env = Modules_tool.load_stack (Site.base_env home) home_install in
  let bundle =
    Result.get_ok
      (Feam_core.Phases.source_phase config home home_env ~binary_path:home_path)
  in
  Fmt.pr "[3] Source phase gathered copies of: %s@.@."
    (String.concat ", "
       (List.map (fun c -> c.Feam_core.Bdc.copy_request) bundle.Feam_core.Bundle.copies));
  let report =
    Result.get_ok
      (Feam_core.Phases.target_phase config target (Site.base_env target)
         ~bundle ~binary_path:staged ())
  in
  let p = Feam_core.Report.prediction report in
  (match p.Feam_core.Predict.verdict with
  | Feam_core.Predict.Ready plan ->
    Fmt.pr "[4] FEAM resolution staged: %s@.@."
      (String.concat ", " (List.map fst plan.Feam_core.Predict.staged_copies));
    let env' =
      List.fold_left
        (fun e d -> Env.prepend_path e "LD_LIBRARY_PATH" d)
        env plan.Feam_core.Predict.ld_library_path_additions
    in
    Fmt.pr "[5] Run with FEAM's configuration: %s@.@." (run target env' staged)
  | Feam_core.Predict.Not_ready reasons ->
    Fmt.pr "[4] unexpectedly not ready:@.";
    List.iter (fun r -> Fmt.pr "    - %s@." r) reasons);

  (* Counter-example: the reverse direction fails the C-library vetting.
     A binary from the gcc 4.4 / glibc 2.12 site needs libgfortran.so.3;
     its copy references GLIBC_2.6 symbols — unusable on a glibc 2.5
     system, and FEAM says so instead of staging a broken copy. *)
  Fmt.pr "--- Counter-example: copy rejected by the C-library rule ---@.@.";
  let reverse_program = Feam_toolchain.Compile.program ~language:Stack.Fortran "reverse" in
  let target_path =
    Result.get_ok
      (Feam_toolchain.Compile.compile_mpi_to target target_install reverse_program
         ~dir:"/home/user/bin")
  in
  let target_env = Modules_tool.load_stack (Site.base_env target) target_install in
  let reverse_bundle =
    Result.get_ok
      (Feam_core.Phases.source_phase config target target_env
         ~binary_path:target_path)
  in
  Vfs.remove_tree (Site.vfs home) "/tmp/feam";
  let reverse_report =
    Result.get_ok
      (Feam_core.Phases.target_phase config home (Site.base_env home)
         ~bundle:reverse_bundle ())
  in
  match (Feam_core.Report.prediction reverse_report).Feam_core.Predict.verdict with
  | Feam_core.Predict.Ready _ -> Fmt.pr "unexpectedly ready@."
  | Feam_core.Predict.Not_ready reasons ->
    Fmt.pr "FEAM predicts NOT READY at the older site:@.";
    List.iter (fun r -> Fmt.pr "  - %s@." r) reasons
