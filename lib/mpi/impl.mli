(** The three dominant open-source MPI implementations of the paper's
    era.  MPI is an interface specification, not a link-level one: each
    implementation produces different link-level dependencies, which is
    what the identification scheme (paper Table I) exploits. *)

type t = Open_mpi | Mpich2 | Mvapich2

val name : t -> string

(** Short identifier used in module names and install prefixes. *)
val slug : t -> string

val of_slug : string -> t option
val equal : t -> t -> bool

(** Core C-binding MPI libraries the implementation's wrapper links into
    every program. *)
val core_libs : t -> version:Feam_util.Version.t -> Feam_util.Soname.t list

(** Additional MPI libraries pulled in by Fortran programs. *)
val fortran_libs : t -> version:Feam_util.Version.t -> Feam_util.Soname.t list

(** System-supplied libraries the wrapper additionally links: the
    link-level fingerprints of paper Table I. *)
val extra_system_libs : t -> Feam_util.Soname.t list

(** The paper's MPI compatibility rule (§III.B): same implementation
    type only; versions are not trusted. *)
val compatible : binary:t -> site:t -> bool
