(** Shared-object naming convention: [lib<name>.so.<major>[.<minor>...]].

    The shared-library determinant of the prediction model (paper §III.D)
    rests on this convention: libraries with the same base name and major
    version expose compatible APIs. *)

type t

(** [make ?version base] builds a soname; [version] is the trailing dotted
    numbers (default: none, i.e. a bare link name).
    @raise Invalid_argument on an empty base or negative component. *)
val make : ?version:int list -> string -> t

val base : t -> string
val version : t -> int list

(** Leading version component, if the name carries a version. *)
val major : t -> int option

(** Renders "libfoo.so.1.2.3" (or "libfoo.so" for an unversioned name). *)
val to_string : t -> string

(** The compile-time link name: "libfoo.so". *)
val link_name : t -> string

(** Why a file name fails to parse as a soname.  [Version_out_of_range]
    covers all-digit components that overflow [int] (e.g. a 30-digit
    "version"): these are malformed names, not versions. *)
type parse_error =
  | No_so_marker
  | Empty_base
  | Empty_version_component
  | Bad_version_component of string
  | Version_out_of_range of string

val parse_error_to_string : parse_error -> string

(** Parse "libfoo.so.1.2.3"; the error explains what is malformed about
    the name (trailing non-numeric suffixes such as "libfoo.so.1abc",
    empty components such as "libfoo.so..1", a missing base, ...). *)
val of_string_result : string -> (t, parse_error) result

(** [of_string s] is {!of_string_result} with the reason discarded. *)
val of_string : string -> t option

(** @raise Invalid_argument when {!of_string} would return [None]. *)
val of_string_exn : string -> t

(** [satisfies ~provided ~required] — can a library named [provided]
    satisfy a dependency on [required]?  Requires an equal base name and,
    when [required] is versioned, an equal major version. *)
val satisfies : provided:t -> required:t -> bool
