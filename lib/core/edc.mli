(** Environment Discovery Component (paper §V.B).

    Gathers information about a computing environment: ISA via uname, OS
    via /proc/version and /etc/*release, the C library version by running
    the C library binary (with an API fallback), and the available/loaded
    MPI stacks via the user-environment management tools with a
    path-search fallback. *)

(** Parse the banner the C library binary prints when executed. *)
val parse_glibc_banner : string -> Feam_util.Version.t option

(** Shared libraries of a binary missing under the given environment:
    ldd when usable, name-by-name search otherwise. *)
val missing_libraries :
  ?clock:Feam_util.Sim_clock.t ->
  Feam_sysmodel.Site.t ->
  Feam_sysmodel.Env.t ->
  binary_path:string ->
  needed:string list ->
  string list

(** Full environment discovery. *)
val discover :
  ?clock:Feam_util.Sim_clock.t ->
  env_type:[ `Target | `Guaranteed ] ->
  Feam_sysmodel.Site.t ->
  Feam_sysmodel.Env.t ->
  Discovery.t
