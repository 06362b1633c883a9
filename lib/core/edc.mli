(** Environment Discovery Component (paper §V.B).

    Gathers information about a computing environment: ISA via uname, OS
    via /proc/version and /etc/*release, the C library version by running
    the C library binary (with an API fallback), and the available/loaded
    MPI stacks via the user-environment management tools with a
    path-search fallback. *)

(** Shared libraries of a binary missing under the given environment:
    ldd when usable, name-by-name search otherwise.  ldd resolves
    through [ctx]'s closure memo, if any. *)
val missing_libraries :
  ?ctx:Eval_ctx.t ->
  Feam_sysmodel.Site.t ->
  Feam_sysmodel.Env.t ->
  binary_path:string ->
  needed:string list ->
  string list

(** Full environment discovery, through [ctx]'s pass memo when it has
    one ({!Pass_memo.find_or_discover}).  While a write in an open
    file-system scope is to a path discovery reads (a release file, an
    MPI library under /opt, which the path search reads a stack's slug
    from, or a path the lookup of libc.so.6 in a default library
    directory passes through), discovery runs live and nothing is
    kept. *)
val discover :
  ?ctx:Eval_ctx.t ->
  env_type:[ `Target | `Guaranteed ] ->
  Feam_sysmodel.Site.t ->
  Feam_sysmodel.Env.t ->
  Discovery.t
