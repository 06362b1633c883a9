(* Community codes distributed as binaries (paper §VI.B): the scientist
   has an application binary but no access to the environment where it
   was built — so only FEAM's *basic* prediction (target phase alone) is
   available: no shipped probes, no library resolution.

   This example surveys the five Table II sites with basic prediction for
   a binary "downloaded" from Fir, and shows what the missing source
   phase costs: sites that extended prediction could repair stay
   unusable.

     dune exec examples/community_code.exe *)

open Feam_util
open Feam_sysmodel
open Feam_evalharness

let () =
  let params = Params.default in
  let sites = Sites.build_all params in
  let fir = Sites.find_by_name sites "fir" in

  (* The community distributes a PGI-compiled Fortran binary built on
     Fir: its runtime libraries exist only where PGI is installed. *)
  let install =
    List.find
      (fun i ->
        Feam_mpi.Compiler.family
          (Feam_mpi.Stack.compiler (Stack_install.stack i))
        = Feam_mpi.Compiler.Pgi)
      (Site.stack_installs fir)
  in
  let program =
    Feam_toolchain.Compile.program ~language:Feam_mpi.Stack.Fortran
      ~binary_size_mb:3.5 "communitycode"
  in
  let path =
    match
      Feam_toolchain.Compile.compile_mpi_to fir install program
        ~dir:"/home/user/downloads"
    with
    | Ok p -> p
    | Error e -> failwith (Feam_toolchain.Compile.error_to_string e)
  in
  let bytes =
    match Vfs.find (Site.vfs fir) path with
    | Some { Vfs.kind = Vfs.Elf b; _ } -> b
    | _ -> failwith "no bytes"
  in
  Fmt.pr "Community binary: %s, built with %s on %s@.@." path
    (Feam_mpi.Stack.to_string (Stack_install.stack install))
    (Site.name fir);

  let config = Feam_core.Config.default in
  let rows =
    sites
    |> List.filter (fun s -> Site.name s <> "fir")
    |> List.map (fun target ->
           (* the user scp's the binary and runs only the target phase *)
           Vfs.scoped (Site.vfs target) @@ fun () ->
           let staged = "/home/user/downloads/communitycode" in
           Vfs.add (Site.vfs target) staged (Vfs.Elf bytes);
           let verdict, detail =
             match
               Feam_core.Phases.target_phase config target
                 (Site.base_env target) ~binary_path:staged ()
             with
             | Ok report -> (
               let p = Feam_core.Report.prediction report in
               match p.Feam_core.Predict.verdict with
               | Feam_core.Predict.Ready plan ->
                 ( "READY",
                   Option.value plan.Feam_core.Predict.chosen_stack_slug
                     ~default:"(serial)" )
               | Feam_core.Predict.Not_ready (r :: _) -> ("not ready", r)
               | Feam_core.Predict.Not_ready [] -> ("not ready", ""))
             | Error e -> ("error", e)
           in
           let detail =
             if String.length detail > 58 then String.sub detail 0 58 ^ "..."
             else detail
           in
           [ Site.name target; verdict; detail ])
  in
  Table.print
    (Table.make ~title:"Basic prediction (no guaranteed environment available)"
       ~header:[ "Target site"; "Prediction"; "Detail" ]
       rows);
  Fmt.pr
    "@.Without the source phase, missing PGI runtime libraries cannot be \
     resolved: the scientist must find a PGI-equipped site or obtain the \
     bundle from someone with access to the build environment.@."
