(** `ldd -v` emulation: runs the same resolution as the dynamic linker
    and renders the familiar text report.  Mirrors ldd's real limitation
    (paper §V.A): it cannot inspect foreign-architecture binaries. *)

type error =
  [ `Tool_unavailable of string
  | `No_such_file of string
  | `Not_dynamic of string ]

(** The resolution goes through [closures] when given
    ({!Resolve.run}). *)
val run :
  ?closures:Resolve.memo ->
  Feam_sysmodel.Site.t ->
  Feam_sysmodel.Env.t ->
  string ->
  (Resolve.t, error) result

(** Direct or transitive dependencies that could not be located. *)
val missing_libraries : Resolve.t -> string list
