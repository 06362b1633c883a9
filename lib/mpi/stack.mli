(** An MPI stack: the combination of MPI implementation (with version),
    associated compiler, and interconnection network (paper §I, §III.B).
    Stacks are what sites advertise and what binaries were built with. *)

type t

type language = C | Fortran

val make :
  impl:Impl.t ->
  impl_version:Feam_util.Version.t ->
  compiler:Compiler.t ->
  interconnect:Interconnect.t ->
  t

val impl : t -> Impl.t
val impl_version : t -> Feam_util.Version.t
val compiler : t -> Compiler.t
val interconnect : t -> Interconnect.t
val equal : t -> t -> bool

(** "openmpi-1.4.3-intel": the slug used for install prefixes and module
    names; real sites' path naming reveals stacks this way (§V.B). *)
val slug : t -> string

val to_string : t -> string

(** Full dynamic dependency set, excluding libc/libm/libpthread. *)
val needed_libs : t -> language -> Feam_util.Soname.t list

(** Compiler wrapper names installed under a stack prefix. *)
val wrapper_names : string list

(** Default launch command ("mpiexec", §V.C). *)
val default_launcher : string
