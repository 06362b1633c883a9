(** Shell environment of a simulated site session: an immutable variable
    map plus helpers for the colon-separated path variables the
    resolution model manipulates (PATH, LD_LIBRARY_PATH). *)

type t

val empty : t
val get : t -> string -> string option
val set : t -> string -> string -> t
val bindings : t -> (string * string) list

(** Path components of a variable; empty when unset. *)
val paths : t -> string -> string list

(** Prepend a directory to a path variable (how the resolution model
    exposes staged library copies, paper §IV). *)
val prepend_path : t -> string -> string -> t

val ld_library_path : t -> string list
val path : t -> string list
