(** Provisioning: populates a site's virtual filesystem with the shared
    libraries, release files, tool configuration and MPI stack installs
    its Table II characteristics imply.  Every installed library is a
    real ELF image built against the site's glibc — so copies taken from
    one site carry that site's C-library requirements with them. *)

(** The soname a program linking a scientific family gets on a site. *)
val scientific_soname :
  Feam_sysmodel.Site.t -> Libdb.scientific_family -> Feam_util.Soname.t

(** Default compiler that built the site's distro packages. *)
val distro_compiler : Feam_sysmodel.Site.t -> Feam_mpi.Compiler.t

(** Install an MPI stack under its prefix (libraries, wrappers, launcher)
    and register it on the site. *)
val provision_stack :
  Feam_sysmodel.Site.t ->
  ?health:Feam_sysmodel.Stack_install.health ->
  ?registered:bool ->
  Feam_mpi.Stack.t ->
  Feam_sysmodel.Stack_install.t

(** Provision the whole site: base system, native compilers, the given
    stacks, then the user-environment tool's database. *)
val provision_site :
  Feam_sysmodel.Site.t ->
  stacks:(Feam_mpi.Stack.t * Feam_sysmodel.Stack_install.health) list ->
  Feam_sysmodel.Stack_install.t list
