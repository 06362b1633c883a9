(** One MPI stack installed at a site: the stack definition plus where it
    lives and whether it actually works.  Advertised stacks can be
    unusable due to administrator misconfiguration (paper §III.B), or
    carry defects only foreign binaries hit (§VI.C). *)

type health =
  | Functioning
  | Misconfigured of string
      (** advertised but broken: no program launches under it *)
  | Foreign_binary_defect of foreign_defect
      (** natively compiled programs work; foreign binaries built with
          particular implementation versions fail — detectable only by
          the extended prediction's shipped probes *)

and foreign_defect = {
  affected_build_versions : Feam_util.Version.t list;
  symptom : [ `Abi_incompatibility | `Floating_point_error ];
}

type t

val make :
  ?health:health ->
  ?registered:bool ->
  prefix:string ->
  Feam_mpi.Stack.t ->
  t

val stack : t -> Feam_mpi.Stack.t
val health : t -> health

(** Appears in the site's user-environment management tool. *)
val registered : t -> bool

val lib_dir : t -> string
val bin_dir : t -> string

(** The module/softenv key name ("openmpi-1.4-gnu"). *)
val module_name : t -> string

(** Does a natively compiled program launch under this stack? *)
val launches_native : t -> bool

(** Does a foreign binary built with [build_version] of the same
    implementation launch (library resolution aside)? *)
val accepts_foreign_build :
  t ->
  build_version:Feam_util.Version.t ->
  ( unit,
    [ `Misconfigured of string
    | `Defect of [ `Abi_incompatibility | `Floating_point_error ] ] )
  result
