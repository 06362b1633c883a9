(** Dotted release versions with an optional pre-release tag.

    Handles the version strings that appear throughout site and binary
    descriptions: glibc versions ("2.3.4"), MPI implementation versions
    ("1.4", "1.7rc1", "1.7a2"), compiler versions ("4.4.5", "11.1") and
    shared-object version suffixes ("6.0.13"). *)

type t

(** [of_ints cs] is [make cs]. *)
val of_ints : int list -> t

val components : t -> int list

(** First numeric component ("2" in "2.3.4"). *)
val major : t -> int

val to_string : t -> string

(** Parse "2.3.4" or "1.7rc1"; [None] if the string does not start with a
    numeric component, or if a numeric component is too long for an
    [int].  Trailing non-numeric text becomes the tag.  Never raises. *)
val of_string : string -> t option

(** @raise Invalid_argument when {!of_string} would return [None]. *)
val of_string_exn : string -> t

(** Total order: components compared elementwise with zero padding
    ("1.7" = "1.7.0"); a tagged version is a pre-release and orders before
    the same untagged components ("1.7rc1" < "1.7"). *)
val compare : t -> t -> int

val equal : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( > ) : t -> t -> bool
val max : t -> t -> t
val min : t -> t -> t
val pp : t Fmt.t
