(* Strategy advisor: binary migration vs recompilation (the paper's §VII
   future-work direction, implemented as an extension).

   A scientist owns the source of a Fortran CFD code and has an
   allocation on the five Table II sites.  For each target, FEAM first
   predicts the readiness of the migrated *binary*; where the binary
   cannot run, the advisor checks whether the target can rebuild from
   source (native toolchain + a functioning stack that accepts it) and
   estimates the rebuild cost.

     dune exec examples/strategy_advisor.exe *)

open Feam_util
open Feam_sysmodel
open Feam_evalharness

let () =
  let params = Params.default in
  let sites = Sites.build_all params in
  let home = Sites.find_by_name sites "ranger" in

  (* built on Ranger with the PGI Open MPI stack: the PGI runtime makes
     binary migration hard, while the source is portable *)
  let install =
    List.find
      (fun i ->
        Feam_mpi.Compiler.family
          (Feam_mpi.Stack.compiler (Stack_install.stack i))
        = Feam_mpi.Compiler.Pgi)
      (Site.stack_installs home)
  in
  let source =
    Feam_toolchain.Compile.program ~language:Feam_mpi.Stack.Fortran
      ~binary_size_mb:2.6 "climate_model"
  in
  let path =
    Result.get_ok
      (Feam_toolchain.Compile.compile_mpi_to home install source
         ~dir:"/home/user/bin")
  in
  Fmt.pr "Application: %s, built at %s with %s; source available@.@." path
    (Site.name home)
    (Feam_mpi.Stack.to_string (Stack_install.stack install));

  let config = Feam_core.Config.default in
  let home_env = Modules_tool.load_stack (Site.base_env home) install in
  let bundle =
    Result.get_ok
      (Feam_core.Phases.source_phase config home home_env ~binary_path:path)
  in
  let rows =
    sites
    |> List.filter (fun s -> Site.name s <> Site.name home)
    |> List.map (fun target ->
           Vfs.scoped (Site.vfs target) @@ fun () ->
           let prediction =
             match
               Feam_core.Phases.target_phase config target
                 (Site.base_env target) ~bundle ()
             with
             | Ok report -> Feam_core.Report.prediction report
             | Error e ->
               {
                 Feam_core.Predict.verdict = Feam_core.Predict.Not_ready [ e ];
                 determinants =
                   {
                     Feam_core.Predict.isa =
                       {
                         Feam_core.Predict.isa_compatible = false;
                         binary_machine = Feam_elf.Types.X86_64;
                         binary_class = Feam_elf.Types.C64;
                         site_machine = None;
                       };
                     stack = None;
                     clib =
                       {
                         Feam_core.Predict.clib_compatible = false;
                         required = None;
                         available = None;
                       };
                     libs = None;
                   };
               }
           in
           let advice =
             Feam_core.Advisor.advise target ~binary_prediction:prediction
               ~source:(Some source)
           in
           let rationale =
             if String.length advice.Feam_core.Advisor.rationale > 56 then
               String.sub advice.Feam_core.Advisor.rationale 0 56 ^ "..."
             else advice.Feam_core.Advisor.rationale
           in
           [
             Site.name target;
             Feam_core.Advisor.strategy_to_string advice.Feam_core.Advisor.strategy;
             rationale;
           ])
  in
  Table.print
    (Table.make ~title:"Migration strategy per target site"
       ~header:[ "Site"; "Recommendation"; "Why" ]
       rows);
  Fmt.pr
    "@.Binary migration wins wherever FEAM predicts readiness (no compile \
     time, no source needed); recompilation covers targets whose environment \
     cannot host the binary; sites offering neither are skipped without \
     wasting a single trial-and-error submission.@."
