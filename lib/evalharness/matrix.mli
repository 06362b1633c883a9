(** Site-pair migration matrix: post-resolution success rate per
    (home, target) pair — the environment boundaries the aggregate
    tables average away. *)

type t

val build : Feam_sysmodel.Site.t list -> Migrate.migration list -> t
val table : t -> Feam_util.Table.t
