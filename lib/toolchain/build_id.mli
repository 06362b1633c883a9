(** Build identification: a comment string in every built image, as
    real toolchains' build IDs and timestamps guarantee.  A build that is
    not a probe takes the next serial of its site's world, so its image
    is unique there and the world's provenance table, keyed by image
    digest, never confuses two builds.  A probe takes no serial: its ID
    names its whole template key (DESIGN §19). *)

(** The build ID of the build [raw] names: equal strings give equal
    IDs. *)
val of_string : string -> string

(** The build ID of the next build at [site]: the site's name and the
    next serial of its world ({!Feam_sysmodel.Build_world.next_serial}). *)
val next : Feam_sysmodel.Site.t -> string
