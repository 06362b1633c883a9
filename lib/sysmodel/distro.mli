(** Linux distribution model: what /proc/version and /etc/*release say
    (the EDC's OS-identification channels, paper §V.B), plus the default
    library locations the search fallbacks scan. *)

type flavor = Centos | Rhel | Sles

type t

val make : flavor -> version:Feam_util.Version.t -> kernel:Feam_util.Version.t -> t
val flavor : t -> flavor
val version : t -> Feam_util.Version.t
val flavor_name : flavor -> string
val name : t -> string

(** Path and contents of the release file the EDC consults. *)
val release_file : t -> string * string

(** Contents of /proc/version. *)
val proc_version : t -> machine:Feam_elf.Types.machine -> string

(** Default system library directories by word size, in search order —
    the "common library locations" of paper §V.A. *)
val default_lib_dirs : bits:[ `B32 | `B64 ] -> string list

(** Kernel version triple for .note.ABI-tag. *)
val kernel_triple : t -> int * int * int
