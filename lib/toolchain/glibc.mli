(** GNU C library model: the historical sequence of glibc releases and
    the symbol-version sets each defines.

    The C-library determinant (paper §III.C) turns on two facts captured
    here: a binary records symbol-version {e needs} (GLIBC_x) for the
    features it actually uses, and a site's glibc defines every symbol
    version up to its own release — so compatibility is "target glibc >=
    the binary's required version". *)

(** Release history relevant to the paper's site era (2.0 .. 2.12). *)
val release_history : Feam_util.Version.t list

val symbol_of_version : Feam_util.Version.t -> string

(** A representative symbol introduced at a release: what programs
    referencing that symbol version actually import, and what the C
    library of that release exports under it. *)
val representative_symbol : Feam_util.Version.t -> string

(** Parse "GLIBC_2.3.4"; [None] for non-GLIBC version names. *)
val version_of_symbol : string -> Feam_util.Version.t option

(** Word-size baseline: 64-bit ABIs never reference versions older than
    their port (x86-64 programs reference at least GLIBC_2.2.5). *)
val baseline : bits:[ `B32 | `B64 ] -> Feam_util.Version.t

(** Symbol versions a glibc release defines: every release up to it. *)
val defined_symbol_versions : Feam_util.Version.t -> string list

(** The symbol versions a program references, given the newest glibc
    feature level its code uses ([appetite]) and the glibc it was built
    against ([build]). *)
val referenced_versions :
  bits:[ `B32 | `B64 ] ->
  appetite:Feam_util.Version.t ->
  build:Feam_util.Version.t ->
  string list

(** The binary's {e required C library version}: the newest version among
    its references (paper §III.C). *)
val required_version : string list -> Feam_util.Version.t option

val libc_soname : Feam_util.Soname.t
val libm_soname : Feam_util.Soname.t
val libpthread_soname : Feam_util.Soname.t
val libdl_soname : Feam_util.Soname.t
val librt_soname : Feam_util.Soname.t
