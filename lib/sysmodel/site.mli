(** A simulated computing site: everything the paper's Table II records
    about an environment, backed by a virtual filesystem holding real ELF
    images for every installed library.

    Sites are the unit both FEAM and the ground-truth executor operate
    on; neither sees simulator internals directly — FEAM goes through the
    tool emulations, the executor through real dynamic-linker search
    semantics. *)

type modules_flavor = Environment_modules | Softenv | No_tool

type t

val make :
  ?description:string ->
  ?tools:Tools.t ->
  ?modules_flavor:modules_flavor ->
  ?compilers:Feam_mpi.Compiler.t list ->
  ?base_env:Env.t ->
  ?seed:int ->
  ?fault_model:Fault_model.t ->
  machine:Feam_elf.Types.machine ->
  distro:Distro.t ->
  glibc:Feam_util.Version.t ->
  interconnect:Feam_mpi.Interconnect.t ->
  batch:Batch.t ->
  world:Build_world.t ->
  string ->
  t

val name : t -> string
val machine : t -> Feam_elf.Types.machine
val distro : t -> Distro.t
val glibc : t -> Feam_util.Version.t
val interconnect : t -> Feam_mpi.Interconnect.t
val vfs : t -> Vfs.t
val base_env : t -> Env.t
val tools : t -> Tools.t
val stack_installs : t -> Stack_install.t list
val modules_flavor : t -> modules_flavor
val compilers : t -> Feam_mpi.Compiler.t list
val batch : t -> Batch.t
val fault_model : t -> Fault_model.t

(** The world the site was built in: the build sequence and provenance
    table it shares with the sites built alongside it. *)
val world : t -> Build_world.t
val bits : t -> [ `B32 | `B64 ]

(** Append an install: this list and {!ld_conf_dirs} only grow. *)
val add_stack_install : t -> Stack_install.t -> unit

(** Extra directories registered in /etc/ld.so.conf: compiler runtime
    locations the administrator added. *)
val ld_conf_dirs : t -> string list

(** The directories the dynamic loader actually consults: the registered
    ones only while the cache is current. *)
val ld_cache_dirs : t -> string list

(** Whether ld.so.cache reflects ld.so.conf (an administrator who forgot
    ldconfig leaves libraries on disk but invisible to the loader). *)
val ld_cache_current : t -> bool

val set_ld_cache_current : t -> bool -> unit

val add_ld_conf_dir : t -> string -> unit
val find_stack_install : t -> slug:string -> Stack_install.t option

(** System default library directories for this site's word size. *)
val default_lib_dirs : t -> string list

val compiler_of_family :
  t -> Feam_mpi.Compiler.family -> Feam_mpi.Compiler.t option

(** Per-coordinate deterministic randomness for this site (draws are
    keyed by site name and seed). *)
val keyed_bool : t -> p:float -> string -> bool

val pp : t Fmt.t
