(** The resolution model (paper §IV): missing shared libraries are
    supplied by making copies from the guaranteed execution environment
    available at runtime.  Each candidate copy is vetted by recursively
    applying the prediction model to it — a shared library is a binary
    too — and usable copies are staged and exposed through the runtime
    environment. *)

type rejection =
  | No_copy_available
  | Copy_wrong_isa
  | Copy_clib_incompatible of {
      copy_requires : Feam_util.Version.t;
      target_has : Feam_util.Version.t option;
    }
  | Copy_dependency_unresolvable of string

val rejection_to_string : rejection -> string

type outcome = {
  staged : (string * string) list;  (** needed name -> staged path *)
  staged_keys : (string * string) list;
      (** needed name -> depot content key (hex); empty without a depot *)
  failed : (string * rejection) list;
  env : Feam_sysmodel.Env.t;  (** with the staging directory exposed *)
}

(** A depot handle for staging: copies are interned into the shared
    store, and transfer cost is charged only for objects the target site
    does not already hold in the possession index. *)
type depot

val depot :
  store:Feam_depot.Store.t ->
  possession:Feam_depot.Planner.Possession.index ->
  depot

val present_at_target :
  Feam_sysmodel.Site.t -> Feam_sysmodel.Env.t -> string -> bool

(** Attempt to resolve every name in [missing] from the bundle's copies;
    stages usable copies (and their staged-only dependencies) into the
    configuration's staging directory. *)
val resolve :
  ?clock:Feam_util.Sim_clock.t ->
  ?depot:depot ->
  Config.t ->
  Feam_sysmodel.Site.t ->
  Feam_sysmodel.Env.t ->
  bundle:Bundle.t ->
  target_glibc:Feam_util.Version.t option ->
  binary_machine:Feam_elf.Types.machine ->
  binary_class:Feam_elf.Types.elf_class ->
  missing:string list ->
  outcome
