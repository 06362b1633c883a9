(** User-supplied configuration (paper §V).

    Before running FEAM, the user specifies the submission scripts/queues
    for the site — the only site knowledge FEAM requires — plus which
    phase to run, the binary's location, and optional per-MPI-type
    launcher overrides. *)

type phase_selection = Source_phase | Target_phase | Both_phases

type t = {
  phase : phase_selection;
  binary_path : string option;
      (** required for the source phase, and for target phases run
          without a bundle *)
  serial_queue : string option;
      (** submission queue for serial probes; the site's default (debug)
          queue when omitted *)
  parallel_queue : string option;
  launcher_overrides : (Feam_mpi.Impl.t * string) list;
      (** mpiexec is used by default; overridable per MPI type (§V.C) *)
  staging_dir : string;  (** where resolved library copies are placed *)
  probe_np : int;  (** process count used for MPI probes *)
}

(** Sensible defaults: target phase, mpiexec, 4-process probes. *)
val default : t

(** The launch command to use for binaries of the given MPI type. *)
val launcher : t -> Feam_mpi.Impl.t -> string

(** Serialize to the "key = value" file format; {!of_file_body} on the
    result reproduces the configuration. *)
val to_file_body : t -> string

(** Parse a "key = value" configuration file body.  Unknown keys and
    malformed lines are collected as errors, not ignored. *)
val of_file_body : string -> (t, string list) result
