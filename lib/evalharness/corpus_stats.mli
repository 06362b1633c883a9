(** Corpus composition statistics: binaries per benchmark and build site
    (the quantitative version of §VI.A's subset narrative). *)

val table : Feam_sysmodel.Site.t list -> Testset.binary list -> Feam_util.Table.t
