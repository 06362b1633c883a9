(** The five computing environments of paper Table II, provisioned as
    full simulated sites.  Stack health (misconfigurations,
    foreign-binary defects) is drawn deterministically from the
    evaluation seed, per install. *)

type spec = {
  site_name : string;
  site_description : string;
  distro : Feam_sysmodel.Distro.t;
  glibc : string;
  interconnect : Feam_mpi.Interconnect.t;
  compilers : Feam_mpi.Compiler.t list;
  stacks : Feam_mpi.Stack.t list;
  modules_flavor : Feam_sysmodel.Site.modules_flavor;
  tools : Feam_sysmodel.Tools.t;
  batch : Feam_sysmodel.Batch.t;
}

(** Ranger, Forge, Blacklight, India, Fir — as published in Table II. *)
val specs : spec list

(** Build and provision one site in [world], whose build sequence and
    provenance table it shares with the sites already built there. *)
val build_site :
  world:Feam_sysmodel.Build_world.t -> Params.t -> spec -> Feam_sysmodel.Site.t

(** Build an arbitrary spec list as one fresh world
    ({!Feam_sysmodel.Build_world.create}), byte-reproducible whatever the
    process built before. *)
val build_specs : Params.t -> spec list -> Feam_sysmodel.Site.t list

(** All five sites, freshly provisioned. *)
val build_all : Params.t -> Feam_sysmodel.Site.t list

val find_by_name : Feam_sysmodel.Site.t list -> string -> Feam_sysmodel.Site.t
