(** User-environment management tools: Environment Modules and SoftEnv.
    The EDC consults these to discover which MPI stacks a site offers and
    which stack a shell currently has loaded (paper §V.B). *)

(** `module avail` / softenv listing text; [None] when the site has no
    user-environment management tool. *)
val render_avail : Site.t -> string option

(** Materialize the tool's configuration files into the site filesystem
    (done by provisioning). *)
val provision : Site.t -> unit

(** Load a stack's module into an environment: prepend its bin/lib
    directories to PATH / LD_LIBRARY_PATH and record it as loaded. *)
val load_stack : Env.t -> Stack_install.t -> Env.t

(** The stack install a session currently has loaded: modules listing
    first, PATH inspection as fallback — the paper's two mechanisms. *)
val current_stack : Site.t -> Env.t -> Stack_install.t option
