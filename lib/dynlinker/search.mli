(** Dynamic-linker library search semantics.

    Directory precedence follows ld.so: DT_RPATH (only when no DT_RUNPATH
    is present), LD_LIBRARY_PATH, DT_RUNPATH, the linker-cache
    directories (/etc/ld.so.conf registrations), then the system default
    directories.  Both the ground-truth executor and the ldd emulation
    use these rules, so a library exposed by the resolution model's
    environment edits is found exactly as a real system would. *)

(** Search directories for resolving the dependencies of a parsed object
    under an environment at a site. *)
val search_dirs :
  Feam_sysmodel.Site.t -> Feam_sysmodel.Env.t -> Feam_elf.Spec.t -> string list

(** First regular-file match for a name across the directories (symlinks
    followed). *)
val locate_in_dirs :
  Feam_sysmodel.Site.t -> string list -> string -> string option

(** Locate and parse: the path and the parsed image; [None] when not
    found or not parseable ELF. *)
val locate_elf :
  Feam_sysmodel.Site.t ->
  string list ->
  string ->
  (string * Feam_elf.Reader.t) option
