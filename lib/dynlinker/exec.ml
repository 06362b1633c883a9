(* Ground-truth execution: what actually happens when a binary is
   launched at a site.  This is the oracle FEAM's predictions are scored
   against (paper §VI.B).  It never shares state with the prediction
   code: the outcome is derived from the site's filesystem and
   environment through real link-time rules, from stack health, from
   hidden ABI provenance, and from seeded stochastic system errors — the
   same mix of predictable and unpredictable causes the paper reports. *)

open Feam_sysmodel
open Feam_mpi

type failure =
  | Not_executable of string        (* unparsable / not ELF *)
  | Wrong_isa of { binary_machine : Feam_elf.Types.machine; site_machine : Feam_elf.Types.machine }
  | Missing_libraries of string list
  | Arch_mismatched_libraries of string list
  | Unsatisfied_versions of Resolve.version_failure list
  | Interpreter_missing of string   (* PT_INTERP loader absent at the site *)
  | Invalid_process_count of { np : int; rule : string }
  | No_mpi_stack                    (* nothing loaded in the session *)
  | Stack_misconfigured of string
  | Abi_incompatibility of string
  | Floating_point_error of string
  | Interconnect_unavailable of string
  | System_error of [ `Daemon_spawn | `Timeout ]

type outcome = Success | Failure of failure

type mode = Serial | Mpi of int (* process count *)

(* Failure-injection parameters.  By default each run uses the fault
   model of the site it runs on; an explicit [?params] overrides it
   (e.g. [Fault_model.none] for deterministic what-if runs). *)
type params = Fault_model.t = {
  p_transient : float;
  p_sticky : float;
  p_copy_abi : float;
}

let failure_to_string = function
  | Not_executable what -> "not executable: " ^ what
  | Wrong_isa { binary_machine; site_machine } ->
    Printf.sprintf "wrong ISA: binary is %s, site is %s"
      (Feam_elf.Types.machine_uname binary_machine)
      (Feam_elf.Types.machine_uname site_machine)
  | Missing_libraries libs -> "missing shared libraries: " ^ String.concat ", " libs
  | Arch_mismatched_libraries libs ->
    "wrong-architecture libraries: " ^ String.concat ", " libs
  | Unsatisfied_versions vfs ->
    "unsatisfied symbol versions: "
    ^ String.concat ", "
        (List.map
           (fun v -> Printf.sprintf "%s (%s)" v.Resolve.vf_version v.Resolve.vf_provider)
           vfs)
  | Interpreter_missing path -> "dynamic loader not found: " ^ path
  | Invalid_process_count { np; rule } ->
    Printf.sprintf "invalid process count %d (the program requires %s)" np rule
  | No_mpi_stack -> "no MPI stack loaded in the session"
  | Stack_misconfigured why -> "MPI stack misconfigured: " ^ why
  | Abi_incompatibility what -> "ABI incompatibility: " ^ what
  | Floating_point_error what -> "floating point error: " ^ what
  | Interconnect_unavailable what -> "interconnect unavailable: " ^ what
  | System_error `Daemon_spawn -> "system error: MPI daemon spawn failed"
  | System_error `Timeout -> "system error: communication timeout"

let outcome_to_string = function
  | Success -> "success"
  | Failure f -> "failure: " ^ failure_to_string f

(* Can a binary compiled for [binary_machine] execute on [site_machine]
   hardware?  Identity, plus the one ubiquitous compatibility mode of the
   era: 32-bit x86 on x86-64 processors. *)
let isa_compatible ~binary_machine ~site_machine =
  binary_machine = site_machine
  || (binary_machine = Feam_elf.Types.I386 && site_machine = Feam_elf.Types.X86_64)

let charge_attempt site mode queue =
  let queue =
    match queue with
    | Some q -> q
    | None -> Batch.debug_queue (Site.batch site)
  in
  Cost.charge queue.Batch.wait_seconds;
  Cost.charge
    (match mode with Serial -> Cost.probe_run_serial | Mpi _ -> Cost.probe_run_mpi)

(* ABI defect of one staged foreign library copy: deterministic in
   (library, build site, target site). *)
let copy_has_abi_defect params site (lib : Resolve.resolved_lib) =
  match
    Build_world.find (Site.world site) (Feam_elf.Reader.image_digest lib.Resolve.lib_image)
  with
  | Some prov when prov.Provenance.build_site <> Site.name site ->
    let p =
      Float.min 1.0
        (prov.Provenance.copy_abi_fragility *. params.p_copy_abi)
    in
    let key =
      Printf.sprintf "copy-abi/%s/%s" lib.Resolve.lib_name
        prov.Provenance.build_site
    in
    if p > 0.0 && Site.keyed_bool site ~p key then Some lib.Resolve.lib_name
    else None
  | _ -> None

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let is_square n =
  n > 0
  &&
  let r = int_of_float (sqrt (float_of_int n)) in
  r * r = n || (r + 1) * (r + 1) = n

(* Does the process count satisfy the program's startup rule? *)
let np_allowed rule np =
  match rule with
  | `Any -> np > 0
  | `Power_of_two -> is_power_of_two np
  | `Square -> is_square np

(* One execution attempt. *)
let attempt ?closures ?params ?queue site env ~binary_path ~mode
    ~attempt_no =
  let params = Option.value params ~default:(Site.fault_model site) in
  charge_attempt site mode queue;
  let vfs = Site.vfs site in
  match Vfs.resolve_image vfs binary_path with
  | None when Vfs.exists vfs binary_path ->
    Failure (Not_executable (binary_path ^ ": not an ELF binary"))
  | None -> Failure (Not_executable (binary_path ^ ": no such file"))
  | Some (real_path, image) -> (
    match Feam_elf.Reader.parse_image image with
    | Error e -> Failure (Not_executable (Feam_elf.Reader.error_to_string e))
    | Ok parsed ->
      let spec = Feam_elf.Reader.spec parsed in
      let binary_machine = spec.Feam_elf.Spec.machine in
      let site_machine = Site.machine site in
      if not (isa_compatible ~binary_machine ~site_machine) then
        Failure (Wrong_isa { binary_machine; site_machine })
      else begin
        (* The program interpreter named by PT_INTERP must exist: e.g.
           32-bit binaries on a 64-bit site without the 32-bit runtime
           die here with "No such file or directory". *)
        match spec.Feam_elf.Spec.interp with
        | Some interp when not (Vfs.exists (Site.vfs site) interp) ->
          Failure (Interpreter_missing interp)
        | _ ->
        (* Link phase. *)
        let resolution = Resolve.run ?closures ~path:real_path site env spec in
        if resolution.Resolve.missing <> [] then
          Failure (Missing_libraries resolution.Resolve.missing)
        else if resolution.Resolve.arch_mismatches <> [] then
          Failure
            (Arch_mismatched_libraries
               (List.map (fun m -> m.Resolve.am_lib) resolution.Resolve.arch_mismatches))
        else if resolution.Resolve.version_failures <> [] then
          Failure (Unsatisfied_versions resolution.Resolve.version_failures)
        else
          (* Launch phase. *)
          let digest = Feam_elf.Reader.image_digest image in
          let provenance = Build_world.find (Site.world site) digest in
          let np_check =
            match (mode, provenance) with
            | Mpi np, Some prov
              when not (np_allowed prov.Provenance.np_rule np) ->
              Error
                (Invalid_process_count
                   {
                     np;
                     rule =
                       (match prov.Provenance.np_rule with
                       | `Any -> "any positive count"
                       | `Power_of_two -> "a power of two"
                       | `Square -> "a perfect square");
                   })
            | _ -> Ok ()
          in
          let launch_result =
            match np_check with
            | Error f -> Error f
            | Ok () ->
            match mode with
            | Serial -> Ok ()
            | Mpi _np -> (
              match Modules_tool.current_stack site env with
              | None -> Error No_mpi_stack
              | Some install -> (
                match Stack_install.health install with
                | Stack_install.Misconfigured why ->
                  Error (Stack_misconfigured why)
                | Stack_install.Functioning
                | Stack_install.Foreign_binary_defect _ -> (
                  (* Foreign binaries can hit stack defects natively
                     compiled programs never see. *)
                  let foreign_check =
                    match provenance with
                    | Some { Provenance.stack = Some bstack; _ }
                      when not (Stack.equal bstack (Stack_install.stack install)) ->
                      Stack_install.accepts_foreign_build install
                        ~build_version:(Stack.impl_version bstack)
                    | _ -> Ok ()
                  in
                  match foreign_check with
                  | Error (`Misconfigured why) -> Error (Stack_misconfigured why)
                  | Error (`Defect `Abi_incompatibility) ->
                    Error
                      (Abi_incompatibility
                         (Printf.sprintf "foreign binary under %s"
                            (Stack.slug (Stack_install.stack install))))
                  | Error (`Defect `Floating_point_error) ->
                    Error
                      (Floating_point_error
                         (Printf.sprintf "foreign binary under %s"
                            (Stack.slug (Stack_install.stack install))))
                  | Ok () -> (
                    (* Fabric assumed by the binary's build must exist. *)
                    match provenance with
                    | Some { Provenance.stack = Some bstack; _ }
                      when not
                             (Interconnect.supports
                                ~binary:(Stack.interconnect bstack)
                                ~site:(Site.interconnect site)) ->
                      Error
                        (Interconnect_unavailable
                           (Interconnect.name (Stack.interconnect bstack)))
                    | _ -> Ok ()))))
          in
          match launch_result with
          | Error f -> Failure f
          | Ok () -> (
            (* Staged foreign library copies can still break on ABI. *)
            let copy_defects =
              List.filter_map (copy_has_abi_defect params site)
                resolution.Resolve.resolved
            in
            (* Application-code defects on foreign sites: numerics or
               data assumptions that break away from home (deterministic
               per program+target; invisible to hello-world probes). *)
            let app_defect =
              match provenance with
              | Some prov
                when prov.Provenance.runtime_fragility > 0.0
                     && prov.Provenance.build_site
                        <> Site.name site ->
                Site.keyed_bool site
                  ~p:prov.Provenance.runtime_fragility
                  (Printf.sprintf "app-defect/%s/%s"
                     prov.Provenance.program_name
                     prov.Provenance.build_site)
              | _ -> false
            in
            match copy_defects with
            | lib :: _ ->
              Failure (Abi_incompatibility (Printf.sprintf "library copy %s" lib))
            | [] when app_defect ->
              Failure (Floating_point_error "application numerics trap")
            | [] ->
              (* System errors: a sticky per-migration draw (an overloaded
                 or broken service window) and a transient per-attempt
                 draw.  Probe-scale jobs (sub-minute, single node, debug
                 queue) do not trip the load-induced error class. *)
              let is_probe =
                match provenance with
                | Some prov -> prov.Provenance.is_probe
                | None -> false
              in
              let hex = Digest.to_hex digest in
              let sticky_key = Printf.sprintf "sticky-sys/%s" hex in
              let transient_key =
                Printf.sprintf "transient-sys/%s/%d" hex attempt_no
              in
              if is_probe then Success
              else if
                mode <> Serial
                && Site.keyed_bool site ~p:params.p_sticky sticky_key
              then
                Failure
                  (System_error
                     (if Site.keyed_bool site ~p:0.5 (sticky_key ^ "/kind") then
                        `Daemon_spawn
                      else `Timeout))
              else if
                mode <> Serial
                && Site.keyed_bool site ~p:params.p_transient transient_key
              then Failure (System_error `Timeout)
              else Success)
      end)

(* Full run with the paper's retry policy: up to [attempts] tries, spaced
   in time (we only charge the clock); classified failed only when every
   attempt fails.  Deterministic failures return immediately. *)
let run ?closures ?params ?queue ?(attempts = 5) site env ~binary_path
    ~mode =
  let rec go n last =
    if n > attempts then last
    else
      match
        attempt ?closures ?params ?queue site env ~binary_path ~mode
          ~attempt_no:n
      with
      | Success -> Success
      | Failure (System_error _) as f ->
        (* Transient class: worth retrying. *)
        go (n + 1) f
      | Failure _ as f -> f (* deterministic: retries cannot help *)
  in
  go 1 (Failure (System_error `Timeout))
