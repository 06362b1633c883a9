(** Ground-truth execution: what actually happens when a binary is
    launched at a site — the oracle FEAM's predictions are scored against
    (paper §VI.B).

    The outcome is derived from the site's filesystem and environment
    through real link-time rules, from stack health, from hidden ABI
    provenance, and from the site's seeded fault model.  It shares no
    state with the prediction code. *)

type failure =
  | Not_executable of string  (** unparsable / not ELF / no such file *)
  | Wrong_isa of {
      binary_machine : Feam_elf.Types.machine;
      site_machine : Feam_elf.Types.machine;
    }
  | Missing_libraries of string list
  | Arch_mismatched_libraries of string list
  | Unsatisfied_versions of Resolve.version_failure list
  | Interpreter_missing of string
      (** the PT_INTERP loader is absent at the site *)
  | Invalid_process_count of { np : int; rule : string }
      (** the launch's process count violates the program's startup rule *)
  | No_mpi_stack  (** nothing loaded in the session *)
  | Stack_misconfigured of string
  | Abi_incompatibility of string
  | Floating_point_error of string
  | Interconnect_unavailable of string
  | System_error of [ `Daemon_spawn | `Timeout ]

type outcome = Success | Failure of failure

type mode = Serial | Mpi of int  (** process count *)

(** Failure-injection parameters.  Defaults to the fault model of the
    site the run happens on; override (e.g. with
    {!Feam_sysmodel.Fault_model.none}) for deterministic what-if runs. *)
type params = Feam_sysmodel.Fault_model.t = {
  p_transient : float;
  p_sticky : float;
  p_copy_abi : float;
}

val failure_to_string : failure -> string
val outcome_to_string : outcome -> string

(** Full run with the paper's retry policy: up to [attempts] tries
    (default 5); transient system errors are retried, deterministic
    failures return immediately.  Each attempt's link phase resolves
    through [closures] when given ({!Resolve.run}). *)
val run :
  ?closures:Resolve.memo ->
  ?params:params ->
  ?queue:Feam_sysmodel.Batch.queue ->
  ?attempts:int ->
  Feam_sysmodel.Site.t ->
  Feam_sysmodel.Env.t ->
  binary_path:string ->
  mode:mode ->
  outcome
