(* MPI stack probing (paper §III.B, §V.C): a stack is deemed usable only
   if a basic MPI program actually executes under it.

   Two probe kinds:
   - native: "hello world" compiled at the target with the candidate
     stack's wrappers — detects misconfigured stacks;
   - foreign: hello-world binaries shipped from the guaranteed execution
     environment, compiled with the *application's* stack — additionally
     detects ABI and floating-point defects that only bite foreign
     builds (the extended prediction's edge, §VI.C). *)

open Feam_sysmodel

let probe_dir = "/tmp/feam/probes"

type probe_result = (unit, string) result

(* The batch queue probes are submitted through: the user-configured
   serial/parallel queue when it exists at the site, the default (debug)
   queue otherwise (paper §V: the user specifies serial and parallel
   submission for the site). *)
let probe_queue config site ~parallel =
  let wanted =
    if parallel then config.Config.parallel_queue else config.Config.serial_queue
  in
  Option.bind wanted (Batch.queue_by_name (Site.batch site))

let run_binary ?closures config site env ~binary_path ~parallel =
  let mode =
    if parallel then Feam_dynlinker.Exec.Mpi config.Config.probe_np
    else Feam_dynlinker.Exec.Serial
  in
  let queue = probe_queue config site ~parallel in
  match
    Feam_dynlinker.Exec.run ?closures ?queue site env ~binary_path ~mode
  with
  | Feam_dynlinker.Exec.Success -> Ok ()
  | Feam_dynlinker.Exec.Failure f ->
    Error (Feam_dynlinker.Exec.failure_to_string f)

(* Expose the bundle's usable copies to a probe whose dependencies are
   missing under [env]: probes travel (or run) with the bundle's
   libraries, exactly like the application (paper SIV applied to the
   probe binaries themselves). *)
let resolve_probe_env config site env ~bundle ~target_glibc image =
  match bundle with
  | None -> env
  | Some bundle -> (
    match Feam_elf.Reader.parse_image image with
    | Error _ -> env
    | Ok parsed ->
      let spec = Feam_elf.Reader.spec parsed in
      let missing =
        spec.Feam_elf.Spec.needed
        |> List.filter (fun name ->
               not (Resolve_model.present_at_target site env name))
      in
      if missing = [] then env
      else
        let resolution =
          Resolve_model.resolve config site env ~bundle ~target_glibc
            ~binary_machine:spec.Feam_elf.Spec.machine
            ~binary_class:spec.Feam_elf.Spec.elf_class ~missing
        in
        resolution.Resolve_model.env)

(* Compile and run a native MPI hello world under [install]'s stack,
   through [ctx]'s template table and closure memo.  When a bundle is
   available, the probe runs with its staged copies exposed — a
   natively compiled probe can need them too (e.g. a compiler runtime
   present on disk but absent from a stale loader cache). *)
let native ?ctx ?bundle ?target_glibc config site env install :
    probe_result =
  Feam_obs.Trace.with_span "probe.native" @@ fun () ->
  (* [target_glibc] is the discovered C-library version, when known *)
  if not (Site.tools site).Tools.c_compiler then
    Error "native compilation not possible"
  else
    let env = Modules_tool.load_stack env install in
    match
      Feam_toolchain.Compile.compile_mpi_to
        ?templates:(Eval_ctx.templates ctx) site install
        Feam_toolchain.Compile.hello_world_mpi ~dir:probe_dir
    with
    | Error e -> Error (Feam_toolchain.Compile.error_to_string e)
    | Ok path ->
      let env =
        match Vfs.resolve_image (Site.vfs site) path with
        | Some (_, image) ->
          resolve_probe_env config site env ~bundle ~target_glibc image
        | None -> env
      in
      run_binary ?closures:(Eval_ctx.closures ctx) config site env
        ~binary_path:path ~parallel:true

(* Stage and run a shipped hello-world probe under [install]'s stack.
   The probe travelled with the bundle, so the bundle's library copies
   travel with it: any of its dependencies missing at the target (the
   application's compiler runtime, typically) are resolved from the
   bundle before the run, exactly as for the application itself. *)
let foreign ?closures config site env install ~(bundle : Bundle.t)
    ~target_glibc (probe : Bundle.probe) : probe_result =
  Feam_obs.Trace.with_span "probe.foreign"
    ~attrs:[ ("probe", Feam_obs.Span.Str probe.Bundle.probe_name) ]
  @@ fun () ->
  let env = Modules_tool.load_stack env install in
  let path = probe_dir ^ "/" ^ probe.Bundle.probe_name ^ ".shipped" in
  Vfs.add_image ~declared_size:probe.Bundle.probe_declared_size (Site.vfs site)
    path probe.Bundle.probe_image;
  Cost.charge
    (Cost.copy_per_mb
    *. (float_of_int probe.Bundle.probe_declared_size /. 1048576.0));
  let env =
    resolve_probe_env config site env ~bundle:(Some bundle) ~target_glibc
      probe.Bundle.probe_image
  in
  run_binary ?closures config site env ~binary_path:path ~parallel:true

(* Full stack test: native probe when possible, then every shipped probe
   compiled with a matching implementation.  A stack passes only if all
   applicable probes pass; when no probe can be run at all the stack's
   mere presence cannot be verified and we report that. *)
let test_stack ?ctx config site env install ~(bundle : Bundle.t option)
    ~target_glibc : probe_result =
  Feam_obs.Trace.with_span "probe.test_stack"
    ~attrs:
      [ ("stack", Feam_obs.Span.Str (Stack_install.module_name install)) ]
  @@ fun () ->
  let record result =
    (match result with
    | Ok () ->
      Feam_obs.Metrics.incr "edc.probe_successes";
      Feam_obs.Trace.set_attr "result" (Feam_obs.Span.Str "ok")
    | Error why ->
      Feam_obs.Metrics.incr "edc.probe_failures";
      Feam_obs.Trace.set_attr "result" (Feam_obs.Span.Str "failed");
      Feam_obs.Trace.set_attr "failure" (Feam_obs.Span.Str why));
    Feam_flightrec.Recorder.evidence ~stage:"probe" ~kind:"test_stack"
      (fun () ->
        [
          ( "stack",
            Feam_util.Json.Str (Stack_install.module_name install) );
          ( "result",
            Feam_util.Json.Str
              (match result with Ok () -> "ok" | Error _ -> "failed") );
          ( "failure",
            match result with
            | Ok () -> Feam_util.Json.Null
            | Error why -> Feam_util.Json.Str why );
        ]);
    result
  in
  record
  @@
  let closures = Eval_ctx.closures ctx in
  let native_result =
    if (Site.tools site).Tools.c_compiler then
      Some (native ?ctx ?bundle ?target_glibc config site env install)
    else None
  in
  let foreign_results =
    match bundle with
    | None -> []
    | Some b ->
      b.Bundle.probes
      |> List.map (fun p ->
             ( p.Bundle.probe_stack_slug,
               foreign ?closures config site env install ~bundle:b
                 ~target_glibc p ))
  in
  match native_result with
  | Some (Error e) -> Error ("native probe failed: " ^ e)
  | _ -> (
    match
      List.find_opt (fun (_, r) -> Result.is_error r) foreign_results
    with
    | Some (slug, Error e) ->
      Error (Printf.sprintf "shipped probe (built with %s) failed: %s" slug e)
    | Some (_, Ok ()) -> assert false
    | None ->
      if native_result = None && foreign_results = [] then
        Error "no probe available: cannot verify the stack functions"
      else Ok ())
