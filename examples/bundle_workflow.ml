(* Bundle workflow: the paper's §V deployment story end to end, through
   the serialized artifact.

   At the guaranteed execution environment the source phase produces a
   bundle; the user writes it to a real file (the thing they would scp to
   each target); at the target, the file is read back and drives the
   target phase — no access to the home site, no binary pre-staged.

     dune exec examples/bundle_workflow.exe *)

open Feam_util
open Feam_sysmodel
open Feam_mpi

let v = Version.of_string_exn

let batch =
  Batch.make ~queues:[ { Batch.queue_name = "debug"; wait_seconds = 5.0 } ]

(* The sites below are built together: one build world. *)
let world = Build_world.create ()

let make_site ~name ~glibc ~gcc ~distro_version =
  let compiler = Compiler.make Compiler.Gnu (v gcc) in
  let stack =
    Stack.make ~impl:Impl.Open_mpi ~impl_version:(v "1.4") ~compiler
      ~interconnect:Interconnect.Ethernet
  in
  let site =
    Site.make ~world ~compilers:[ compiler ] ~seed:4 ~fault_model:Fault_model.none
      ~machine:Feam_elf.Types.X86_64
      ~distro:(Distro.make Distro.Centos ~version:(v distro_version) ~kernel:(v "2.6.18"))
      ~glibc:(v glibc) ~interconnect:Interconnect.Ethernet ~batch name
  in
  let installs =
    Feam_toolchain.Provision.provision_site site
      ~stacks:[ (stack, Stack_install.Functioning) ]
  in
  (site, List.hd installs)

let () =
  let home, home_install =
    make_site ~name:"lab-cluster" ~glibc:"2.5" ~gcc:"4.1.2" ~distro_version:"5.6"
  in
  let target, _ =
    make_site ~name:"center-machine" ~glibc:"2.12" ~gcc:"4.4.5" ~distro_version:"6.1"
  in
  let program =
    Feam_toolchain.Compile.program ~language:Stack.Fortran ~binary_size_mb:1.8
      "ocean_model"
  in
  let binary_path =
    Result.get_ok
      (Feam_toolchain.Compile.compile_mpi_to home home_install program
         ~dir:"/home/user/bin")
  in
  let config = Feam_core.Config.default in

  (* 1. Source phase at home, then serialize the bundle to a real file. *)
  let home_env = Modules_tool.load_stack (Site.base_env home) home_install in
  let bundle =
    Result.get_ok (Feam_core.Phases.source_phase config home home_env ~binary_path)
  in
  let artifact = Filename.temp_file "ocean_model" ".feam-bundle" in
  let text = Feam_core.Bundle_io.render bundle in
  Out_channel.with_open_text artifact (fun oc -> Out_channel.output_string oc text);
  Fmt.pr "[home]   source phase done; bundle written to %s (%d KB on disk)@."
    artifact
    (String.length text / 1024);
  Fmt.pr "[home]   contents: binary + %d library copies + %d probes (%.1f MB \
          of libraries when unpacked)@.@."
    (List.length bundle.Feam_core.Bundle.copies)
    (List.length bundle.Feam_core.Bundle.probes)
    (float_of_int (Feam_core.Bundle.library_bytes bundle) /. 1048576.0);

  (* 2. "scp" the file; at the target, parse it back. *)
  let received =
    In_channel.with_open_text artifact In_channel.input_all
  in
  let bundle' = Result.get_ok (Feam_core.Bundle_io.parse received) in
  Fmt.pr "[target] bundle parsed: created at %s, binary %s@.@."
    bundle'.Feam_core.Bundle.created_at
    (Vfs.basename
       bundle'.Feam_core.Bundle.binary_description.Feam_core.Description.path);

  (* 3. Target phase from the parsed bundle alone. *)
  let report =
    Result.get_ok
      (Feam_core.Phases.target_phase config target (Site.base_env target)
         ~bundle:bundle' ())
  in
  print_string (Feam_core.Report.render report);
  Sys.remove artifact;
  Fmt.pr "@.(temporary bundle file removed)@."
