(* FEAM's two phases (paper §V, Figure 2).

   The *source phase* (optional) runs at a guaranteed execution
   environment: BDC on the binary, EDC on the environment, hello-world
   probe generation, and bundling of shared-library copies.  The *target
   phase* (required) runs at each target site: EDC on the target, then
   the TEC produces the prediction and configuration. *)

open Feam_sysmodel

let src = Logs.Src.create "feam.phases" ~doc:"FEAM source/target phases"

module Log = (val Logs.src_log src : Logs.LOG)

(* Where a bundle-carried binary is materialized at the target. *)
let staging_binary_dir = "/tmp/feam/binary"

(* Run [f] and set the current span's [sim_s] attribute to what it
   charged the innermost clock in scope, when there is one. *)
let with_sim_s f =
  match Feam_util.Effects.clock () with
  | None -> f ()
  | Some clock ->
    let before = Feam_util.Sim_clock.elapsed clock in
    let result = f () in
    Feam_obs.Trace.set_attr "sim_s"
      (Feam_obs.Span.Float (Feam_util.Sim_clock.elapsed clock -. before));
    result

(* -- Source phase --------------------------------------------------------- *)

(* The ELF image at [path]: its handle and declared size. *)
let binary_image site path =
  let vfs = Site.vfs site in
  match (Vfs.resolve_image vfs path, Vfs.file_size vfs path) with
  | Some (_, image), Some declared_size -> Some (image, declared_size)
  | _ -> None

let run_source ?ctx site env ~binary_path =
  Feam_obs.Ledger.with_stage "phases.source" @@ fun () ->
  Feam_obs.Trace.with_span "phases.source"
    ~attrs:
      [
        ("site", Feam_obs.Span.Str (Site.name site));
        ("binary", Feam_obs.Span.Str binary_path);
      ]
  @@ fun () ->
  let finish result =
    let outcome = match result with Ok _ -> "ok" | Error _ -> "error" in
    Feam_obs.Metrics.incr "phases.source" ~labels:[ ("result", outcome) ];
    Feam_flightrec.Recorder.record "phase"
      ~fields:
        (fun () ->
          [
            ("phase", Feam_util.Json.Str "source");
            ("site", Feam_util.Json.Str (Site.name site));
            ("result", Feam_util.Json.Str outcome);
          ]);
    result
  in
  Log.info (fun m ->
      m "source phase at %s for %s" (Site.name site) binary_path);
  finish
  @@ with_sim_s
  @@ fun () ->
  match Bdc.gather_source ?ctx site env ~path:binary_path with
  | Error e -> Error ("source phase: " ^ e)
  | Ok gathered ->
    let discovery = Edc.discover ?ctx ~env_type:`Guaranteed site env in
    (* Confirm the currently selected stack matches the BDC's finding
       (paper §V.B) — a mismatch means this environment cannot vouch for
       the binary. *)
    let current_matches =
      match
        ( gathered.Bdc.binary_description.Description.mpi,
          discovery.Discovery.current_stack )
      with
      | None, _ -> true (* serial binary: no stack to confirm *)
      | Some ident, Some current ->
        Feam_mpi.Impl.equal ident.Mpi_ident.impl current.Discovery.impl
      | Some _, None -> false
    in
    if not current_matches then
      Error
        "source phase: the loaded MPI stack does not match the stack the \
         binary was built with; not a guaranteed execution environment for it"
    else begin
      (* Generate hello-world probes with the binary's stack for later
         foreign testing at targets. *)
      let probes =
        match discovery.Discovery.current_stack with
        | None -> []
        | Some current -> (
          match Site.find_stack_install site ~slug:current.Discovery.slug with
          | None -> []
          | Some install ->
            (* A C hello world always; additionally a Fortran one when
               the application is a Fortran code, so the probe exercises
               the same runtime libraries the application needs. *)
            let uses_fortran =
              match gathered.Bdc.binary_description.Description.mpi with
              | Some ident -> ident.Mpi_ident.fortran_bindings
              | None -> false
            in
            let wanted =
              Feam_toolchain.Compile.hello_world_mpi
              ::
              (if uses_fortran then
                 [ Feam_toolchain.Compile.hello_world_mpi_fortran ]
               else [])
            in
            List.filter_map
              (fun program ->
                match
                  Feam_toolchain.Compile.compile_mpi
                    ?templates:(Eval_ctx.templates ctx) site install program
                with
                | Error _ -> None
                | Ok image ->
                  Some
                    {
                      Bundle.probe_name =
                        program.Feam_toolchain.Compile.prog_name;
                      probe_image = image;
                      probe_stack_slug = current.Discovery.slug;
                      probe_declared_size =
                        Feam_toolchain.Compile.declared_size program;
                    })
              wanted)
      in
      let binary_image, binary_declared_size =
        match binary_image site binary_path with
        | Some (image, declared_size) -> (Some image, declared_size)
        | None -> (None, 0)
      in
      Cost.charge Cost.bundle_pack_base;
      Log.info (fun m ->
          m "bundle ready: %d copies, %d unlocatable, %d probes"
            (List.length gathered.Bdc.copies)
            (List.length gathered.Bdc.unlocatable)
            (List.length probes));
      Ok
        {
          Bundle.created_at = Site.name site;
          binary_description = gathered.Bdc.binary_description;
          binary_image;
          binary_declared_size;
          copies = gathered.Bdc.copies;
          unlocatable = gathered.Bdc.unlocatable;
          probes;
          source_discovery = discovery;
        }
    end

(* Once per binary per pass when the context carries a pass memo: none
   of the phase's inputs is a target, and a pass changes no home site. *)
let source_phase ?ctx config site env ~binary_path =
  match Option.bind ctx (fun c -> c.Eval_ctx.memo) with
  | None -> run_source ?ctx site env ~binary_path
  | Some memo ->
    Pass_memo.find_or_source memo ~config site env ~binary_path
      ~image:(binary_image site binary_path) (fun () ->
        run_source ?ctx site env ~binary_path)

(* -- Target phase ---------------------------------------------------------- *)

(* Run the required target phase.  Either a bundle (extended mode) or the
   binary's path at the target (basic mode) must be supplied; with a
   bundle carrying the binary bytes, the binary is materialized at the
   target automatically. *)
let target_phase ?depot ?ctx config site env ?bundle ?binary_path () =
  Feam_obs.Ledger.with_stage "phases.target" @@ fun () ->
  Feam_obs.Trace.with_span "phases.target"
    ~attrs:
      [
        ("site", Feam_obs.Span.Str (Site.name site));
        ("extended", Feam_obs.Span.Bool (bundle <> None));
      ]
  @@ fun () ->
  let finish result =
    let outcome = match result with Ok _ -> "ok" | Error _ -> "error" in
    Feam_obs.Metrics.incr "phases.target" ~labels:[ ("result", outcome) ];
    Feam_flightrec.Recorder.record "phase"
      ~fields:
        (fun () ->
          [
            ("phase", Feam_util.Json.Str "target");
            ("site", Feam_util.Json.Str (Site.name site));
            ("result", Feam_util.Json.Str outcome);
          ]);
    result
  in
  finish
  @@ with_sim_s
  @@ fun () ->
  let vfs = Site.vfs site in
  (* Make the binary available at the target if the bundle carries it. *)
  let binary_path =
    match (binary_path, bundle) with
    | Some p, _ -> Some p
    | None, Some b -> (
      match b.Bundle.binary_image with
      | Some image ->
        let path =
          staging_binary_dir ^ "/"
          ^ Vfs.basename b.Bundle.binary_description.Description.path
        in
        Vfs.add_image ~declared_size:b.Bundle.binary_declared_size vfs path
          image;
        Cost.charge
          (Cost.copy_per_mb
          *. (float_of_int b.Bundle.binary_declared_size /. 1048576.0));
        Some path
      | None -> None)
    | None, None -> None
  in
  (* Binary description: from the bundle when available (the BDC already
     ran at the guaranteed site), otherwise by running the BDC here. *)
  let description =
    match bundle with
    | Some b -> Ok b.Bundle.binary_description
    | None -> (
      match binary_path with
      | None ->
        Error
          "target phase: need either a source-phase bundle or the binary at \
           the target site"
      | Some path -> Bdc.describe ?ctx site env ~path)
  in
  match description with
  | Error e -> Error ("target phase: " ^ e)
  | Ok description ->
    Log.info (fun m ->
        m "target phase at %s for %s" (Site.name site)
          description.Description.path);
    Feam_flightrec.Recorder.record "run"
      ~fields:
        (fun () ->
          [
            ("site", Feam_util.Json.Str (Site.name site));
            ("binary", Feam_util.Json.Str description.Description.path);
            ("extended", Feam_util.Json.Bool (bundle <> None));
          ]);
    let discovery = Edc.discover ?ctx ~env_type:`Target site env in
    let input =
      { Tec.config; description; binary_path; bundle; discovery }
    in
    let prediction = Tec.evaluate ?depot ?ctx site env input in
    let report =
      Report.make ~site_name:(Site.name site)
        ~binary:description.Description.path prediction
    in
    Report.journal report;
    Ok report
