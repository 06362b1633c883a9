(** Emulation of the standard Unix utilities FEAM composes (paper §V):
    objdump, readelf, file, uname, locate, find, plus /proc and /etc
    reads.

    Each emulation reads only the site's virtual filesystem and renders
    output in the real tool's text format; the framework parses that
    text, exactly as the real implementation shells out and parses.  When
    the site's {!Tools} record marks a tool absent, the emulation returns
    [`Tool_unavailable] and the framework must fall back. *)

type error =
  [ `Tool_unavailable of string
  | `No_such_file of string
  | `Not_elf of string ]

val error_to_string : error -> string

(** `objdump -p PATH`: format line, Dynamic Section, Version
    References/definitions — the BDC's primary information source. *)
val objdump_p :
  Site.t -> string -> (string, error) result

(** `file PATH`: always available; the BDC's fallback for format/ISA
    identification. *)
val file_cmd :
  Site.t -> string -> (string, error) result

(** `readelf -p .comment PATH`. *)
val readelf_comment :
  Site.t -> string -> (string, error) result

(** `uname -p`. *)
val uname_p :
  Site.t -> (string, error) result

(** `cat /proc/version` (always available). *)
val proc_version : Site.t -> string

(** The /etc/*release files {!etc_release} reads. *)
val release_files : string list

(** Contents of the /etc/*release files present at the site. *)
val etc_release :
  Site.t -> (string * string) list

(** `locate NAME`: paths whose basename starts with NAME. *)
val locate :
  Site.t ->
  string ->
  (string list, error) result

(** `find DIR... -name NAME*`. *)
val find_in_dirs :
  Site.t ->
  string list ->
  string ->
  (string list, error) result

(** The banner the C library binary prints when executed; the EDC parses
    the version out of it (paper §V.B). *)
val glibc_banner : Site.t -> string

(** The paths {!find_libc} tries, in order: libc.so.6 in each of the
    site's default library directories. *)
val libc_candidates : Site.t -> string list

(** Locate libc.so.6 in the site's default library directories. *)
val find_libc : Site.t -> string option
