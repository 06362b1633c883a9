(** Compiler families associated with MPI stacks.  Matching the
    associated compiler matters (paper §III.B) because it determines
    which runtime shared libraries a binary is dynamically linked
    against. *)

type family = Gnu | Intel | Pgi

type t

val make : family -> Feam_util.Version.t -> t
val family : t -> family
val version : t -> Feam_util.Version.t
val family_name : family -> string

val family_slug : family -> string
val family_of_slug : string -> family option
val family_equal : family -> family -> bool
val equal : t -> t -> bool

(** C-side runtime libraries every binary built by this compiler links. *)
val c_runtime_libs : t -> Feam_util.Soname.t list

(** Fortran runtime libraries.  The GNU runtime soname changed across GCC
    releases (libg2c.so.0 / libgfortran.so.1 / libgfortran.so.3) — a real
    source of missing-library failures across sites. *)
val fortran_runtime_libs : t -> Feam_util.Soname.t list

(** The .comment string the compiler embeds in objects it produces. *)
val comment_string : t -> string

val to_string : t -> string
