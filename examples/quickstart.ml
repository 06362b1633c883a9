(* Quickstart: the complete FEAM workflow on two simulated sites.

   We build a "guaranteed execution environment" (the user's home
   cluster, where the binary is known to run) and a target site with a
   different OS generation, compile an MPI application at home, then run
   FEAM's source phase at home and target phase at the target to decide —
   without recompiling — whether the binary is ready to execute there.

     dune exec examples/quickstart.exe *)

open Feam_util
open Feam_sysmodel
open Feam_mpi

let v = Version.of_string_exn

(* -- 1. Describe the two computing sites. --------------------------------- *)

let batch =
  Batch.make ~queues:[ { Batch.queue_name = "debug"; wait_seconds = 10.0 } ]

(* The sites below are built together: one build world. *)
let world = Build_world.create ()

let make_site ~name ~glibc ~gcc ~distro_version =
  let compiler = Compiler.make Compiler.Gnu (v gcc) in
  let stack =
    Stack.make ~impl:Impl.Open_mpi ~impl_version:(v "1.4") ~compiler
      ~interconnect:Interconnect.Ethernet
  in
  let site =
    Site.make ~world ~description:"quickstart cluster" ~compilers:[ compiler ] ~seed:4
      ~fault_model:Fault_model.none
      ~machine:Feam_elf.Types.X86_64
      ~distro:
        (Distro.make Distro.Centos ~version:(v distro_version) ~kernel:(v "2.6.18"))
      ~glibc:(v glibc) ~interconnect:Interconnect.Ethernet ~batch name
  in
  let installs =
    Feam_toolchain.Provision.provision_site site
      ~stacks:[ (stack, Stack_install.Functioning) ]
  in
  (site, List.hd installs)

let () =
  let home, home_install = make_site ~name:"home-cluster" ~glibc:"2.5" ~gcc:"4.1.2" ~distro_version:"5.6" in
  let target, _ = make_site ~name:"remote-site" ~glibc:"2.12" ~gcc:"4.4.5" ~distro_version:"6.1" in
  Fmt.pr "Sites:@.  home:   %a@.  target: %a@.@." Site.pp home Site.pp target;

  (* -- 2. Compile the application at home (a Fortran MPI solver). -------- *)
  let program =
    Feam_toolchain.Compile.program ~language:Stack.Fortran ~binary_size_mb:2.0
      "solver"
  in
  let binary_path =
    match
      Feam_toolchain.Compile.compile_mpi_to home home_install program
        ~dir:"/home/user/bin"
    with
    | Ok p -> p
    | Error e -> failwith (Feam_toolchain.Compile.error_to_string e)
  in
  Fmt.pr "Compiled %s at %s with %s@.@." binary_path (Site.name home)
    (Stack.to_string (Stack_install.stack home_install));

  (* -- 3. Source phase at the guaranteed execution environment. ----------- *)
  let config = Feam_core.Config.default in
  let home_env = Modules_tool.load_stack (Site.base_env home) home_install in
  let clock = Sim_clock.create () in
  let bundle =
    match
      Effects.with_clock clock @@ fun () ->
      Feam_core.Phases.source_phase config home home_env ~binary_path
    with
    | Ok b -> b
    | Error e -> failwith e
  in
  Fmt.pr
    "Source phase complete in %s (simulated): %d library copies, %d probes, \
     %.1f MB bundle@.@."
    (Sim_clock.to_string clock)
    (List.length bundle.Feam_core.Bundle.copies)
    (List.length bundle.Feam_core.Bundle.probes)
    (float_of_int (Feam_core.Bundle.total_bytes bundle) /. 1048576.0);

  (* -- 4. Target phase at the new site (bundle carries the binary). ------- *)
  let clock = Sim_clock.create () in
  let report =
    match
      Effects.with_clock clock @@ fun () ->
      Feam_core.Phases.target_phase config target (Site.base_env target)
        ~bundle ()
    with
    | Ok r -> r
    | Error e -> failwith e
  in
  Fmt.pr "Target phase complete in %s (simulated).@.@." (Sim_clock.to_string clock);
  print_string (Feam_core.Report.render report);

  (* -- 5. Verify against ground truth. ------------------------------------ *)
  let prediction = Feam_core.Report.prediction report in
  match prediction.Feam_core.Predict.verdict with
  | Feam_core.Predict.Ready plan ->
    let install =
      match plan.Feam_core.Predict.chosen_stack_slug with
      | Some slug -> Option.get (Site.find_stack_install target ~slug)
      | None -> failwith "no stack in plan"
    in
    let env = Modules_tool.load_stack (Site.base_env target) install in
    let env =
      List.fold_left
        (fun e d -> Env.prepend_path e "LD_LIBRARY_PATH" d)
        env plan.Feam_core.Predict.ld_library_path_additions
    in
    let outcome =
      Feam_dynlinker.Exec.run target env
        ~binary_path:"/tmp/feam/binary/solver" ~mode:(Feam_dynlinker.Exec.Mpi 8)
    in
    Fmt.pr "@.Ground-truth execution with FEAM's configuration: %s@."
      (Feam_dynlinker.Exec.outcome_to_string outcome)
  | Feam_core.Predict.Not_ready reasons ->
    Fmt.pr "@.FEAM predicts the site is not ready:@.";
    List.iter (fun r -> Fmt.pr "  - %s@." r) reasons
